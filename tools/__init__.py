"""Repository tooling: reprolint and the typecheck gate."""
