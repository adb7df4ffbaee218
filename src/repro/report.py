"""Terminal rendering of regions and world maps.

The paper communicates through maps (Figures 1, 3, 8, 15, 16, 19); this
module gives the CLI and the examples an ASCII equivalent: an
equirectangular character raster of the world with land, a prediction
region, and markers overlaid.

Legend::

    .   land
        ocean (blank)
    #   prediction region
    +   region over ocean (possible before plausibility clipping)
    X   marker (true location, claimed capital, ...)

Rendering downsamples the analysis grid to the requested character size;
a cell block is drawn as region if *any* underlying region cell is set,
so thin regions stay visible.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from .geo.region import Region
from .geo.worldmap import WorldMap

#: Default character dimensions: fits a classic 100-column terminal.
DEFAULT_WIDTH = 96
DEFAULT_HEIGHT = 30


class MapCanvas:
    """An equirectangular character canvas over (part of) the world."""

    def __init__(self, worldmap: WorldMap,
                 width: int = DEFAULT_WIDTH, height: int = DEFAULT_HEIGHT,
                 bounds: Optional[Tuple[float, float, float, float]] = None):
        """``bounds`` is (lat_min, lat_max, lon_min, lon_max); the whole
        world by default."""
        if width < 10 or height < 5:
            raise ValueError("canvas too small to draw anything")
        self.worldmap = worldmap
        self.width = width
        self.height = height
        if bounds is None:
            bounds = (-60.0, 85.0, -180.0, 180.0)
        lat_min, lat_max, lon_min, lon_max = bounds
        if not (lat_min < lat_max and lon_min < lon_max):
            raise ValueError(f"bad bounds {bounds!r}")
        self.bounds = bounds
        self._cells: List[List[str]] = [[" "] * width for _ in range(height)]
        self._draw_land()

    # -- coordinate mapping ---------------------------------------------------

    def _rowcol(self, lat: float, lon: float) -> Optional[Tuple[int, int]]:
        lat_min, lat_max, lon_min, lon_max = self.bounds
        if not (lat_min <= lat <= lat_max and lon_min <= lon <= lon_max):
            return None
        # Row 0 is the top (max latitude).
        row = int((lat_max - lat) / (lat_max - lat_min) * self.height)
        col = int((lon - lon_min) / (lon_max - lon_min) * self.width)
        return (min(row, self.height - 1), min(col, self.width - 1))

    def _block_latlon(self, row: int, col: int) -> Tuple[float, float]:
        lat_min, lat_max, lon_min, lon_max = self.bounds
        lat = lat_max - (row + 0.5) / self.height * (lat_max - lat_min)
        lon = lon_min + (col + 0.5) / self.width * (lon_max - lon_min)
        return lat, lon

    # -- layers ----------------------------------------------------------------

    def _draw_land(self) -> None:
        for row in range(self.height):
            for col in range(self.width):
                lat, lon = self._block_latlon(row, col)
                if self.worldmap.is_land(lat, lon):
                    self._cells[row][col] = "."

    def draw_region(self, region: Region, char: str = "#",
                    ocean_char: str = "+") -> None:
        """Overlay a region.

        Two passes: each character block whose centre lies in the region
        lights up (correct when blocks are finer than grid cells, i.e.
        zoomed in), and each region cell lights its block (correct when
        grid cells are finer than blocks, i.e. zoomed out).
        """
        if region.is_empty:
            return

        def paint(row: int, col: int) -> None:
            current = self._cells[row][col]
            if current == " ":
                self._cells[row][col] = ocean_char
            elif current not in (char, "X"):
                self._cells[row][col] = char

        for row in range(self.height):
            for col in range(self.width):
                lat, lon = self._block_latlon(row, col)
                if region.contains(lat, lon):
                    paint(row, col)
        grid = region.grid
        lats = grid.cell_lats[region.mask]
        lons = grid.cell_lons[region.mask]
        for lat, lon in zip(lats, lons):
            position = self._rowcol(float(lat), float(lon))
            if position is not None:
                paint(*position)

    def draw_marker(self, lat: float, lon: float, char: str = "X") -> None:
        position = self._rowcol(lat, lon)
        if position is not None:
            row, col = position
            self._cells[row][col] = char

    def render(self) -> str:
        border = "+" + "-" * self.width + "+"
        body = "\n".join("|" + "".join(row) + "|" for row in self._cells)
        return f"{border}\n{body}\n{border}"


def region_map(worldmap: WorldMap, region: Region,
               markers: Iterable[Tuple[float, float]] = (),
               width: int = DEFAULT_WIDTH, height: int = DEFAULT_HEIGHT,
               zoom: bool = True, pad_deg: float = 12.0) -> str:
    """Render a region (optionally zoomed to its bounding box) as text."""
    bounds = None
    if zoom and not region.is_empty:
        lats = region.grid.cell_lats[region.mask]
        lons = region.grid.cell_lons[region.mask]
        marker_lats = [m[0] for m in markers]
        marker_lons = [m[1] for m in markers]
        all_lats = np.concatenate([lats, marker_lats]) if marker_lats else lats
        all_lons = np.concatenate([lons, marker_lons]) if marker_lons else lons
        bounds = (max(-60.0, float(all_lats.min()) - pad_deg),
                  min(85.0, float(all_lats.max()) + pad_deg),
                  max(-180.0, float(all_lons.min()) - pad_deg * 1.6),
                  min(180.0, float(all_lons.max()) + pad_deg * 1.6))
    canvas = MapCanvas(worldmap, width=width, height=height, bounds=bounds)
    canvas.draw_region(region)
    for lat, lon in markers:
        canvas.draw_marker(lat, lon)
    return canvas.render()


def campaign_table(report) -> str:
    """Render a campaign report (``experiments.campaign.CampaignReport``).

    Takes the report object (or anything with its fields) rather than
    records: campaign aggregation is streaming, so by the time a table
    is printed no record list exists to iterate.
    """
    lines = [
        f"campaign '{report.plan_name}' — {report.n_servers} servers"
        + (f" under fault profile {report.fault_profile}"
           if report.fault_profile else ""),
        f"  eta={report.eta['eta']:.3f} (R^2={report.eta['r_squared']:.3f}, "
        f"{report.eta['n_proxies']} proxies)",
        f"  verdicts (before disambiguation): {report.verdicts_initial}",
        f"  verdicts (after):                 {report.verdicts_final}",
        f"  reclassified: {report.reclassified}",
        f"  degraded records: {report.degraded}",
    ]
    for category, count in sorted(report.categories.items(),
                                  key=lambda kv: -kv[1]):
        lines.append(f"    {category:<40} {count:5d}")
    lines.append("  per-provider verdicts:")
    for provider in sorted(report.providers):
        lines.append(f"    {provider:<14} {report.providers[provider]}")
    truth = report.ground_truth
    lines.append(
        f"  ground truth: false_precision={truth['false_precision']:.3f} "
        f"credible_precision={truth['credible_precision']:.3f} "
        f"({truth['false_verdicts']} false / "
        f"{truth['credible_verdicts']} credible verdicts)")
    top = sorted(report.claimed_countries.items(),
                 key=lambda kv: (-kv[1], kv[0]))[:10]
    lines.append("  most-claimed countries: " + " ".join(
        f"{code.lower()}:{count}" for code, count in top))
    return "\n".join(lines)
