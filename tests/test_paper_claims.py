"""Every paper claim holds its bounds, and EXPERIMENTS.md is their render.

The claims, their rows and the renderer live in ``tests/claims.py``.
"""

import pytest

from repro.experiments import CampaignReport
from tests import claims


@pytest.mark.parametrize("key", claims.keys())
def test_claim(key):
    found = claims.get(key)
    broken = [f"{r.quantity} = {claims.shown(r.measured, r.fmt)}, "
              f"bound {r.bound_text()}" for r in found.rows if not r.holds()]
    assert not broken, f"{found.label}: " + "; ".join(broken)


def test_experiments_md_is_the_render():
    text = claims.EXPERIMENTS_MD.read_text(encoding="utf-8")
    assert text == claims.render(text)


def test_paper_scale_row_reads_a_campaign_report():
    """The paper-scale campaign bench compares ``paper_scale_row`` of its
    live report with the pinned row; this keeps the reader in step with
    ``CampaignReport``."""
    pinned = claims.PAPER_SCALE
    report = CampaignReport(
        plan_name="paper", n_servers=pinned["servers"], fault_profile=None,
        eta={"eta": float(pinned["eta"])}, verdicts_initial={},
        verdicts_final={verdict: pinned[verdict]
                        for verdict in ("credible", "uncertain", "false")},
        categories={}, reclassified={"total": pinned["reclassified"]},
        degraded=0, providers={}, claimed_countries={},
        ground_truth={"false_precision": float(pinned["false_precision"])})
    assert claims.paper_scale_row(report) == pinned
