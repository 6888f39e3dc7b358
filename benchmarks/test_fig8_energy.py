"""Figure 8: un-core (cache + interconnect) energy, normalised to SRAM.

The paper reports ~54% average un-core energy saving, driven almost
entirely by the STT-RAM's 190.5 mW vs 444.6 mW per-bank leakage, with
write-intensive applications saving a little less (0.765 nJ writes).
"""

from repro.analysis.tables import format_table
from repro.sim.config import Scheme

from common import once, run

APPS = ("tpcc", "sjas", "sclust", "x264", "lbm", "hmmer", "mcf",
        "libquantum")
SCHEMES = (Scheme.SRAM_64TSB, Scheme.STTRAM_64TSB,
           Scheme.STTRAM_4TSB_SS, Scheme.STTRAM_4TSB_RCA,
           Scheme.STTRAM_4TSB_WB)


def _run_all():
    return {
        app: {scheme: run(scheme, app) for scheme in SCHEMES}
        for app in APPS
    }


def test_fig8_uncore_energy(benchmark):
    data = once(benchmark, _run_all)

    print()
    rows = []
    savings = []
    for app in APPS:
        base = data[app][Scheme.SRAM_64TSB].uncore_energy()
        row = [app]
        for scheme in SCHEMES:
            row.append(round(data[app][scheme].uncore_energy() / base, 3))
        rows.append(row)
        savings.append(
            1 - data[app][Scheme.STTRAM_4TSB_WB].uncore_energy() / base)
    rows.append(["average"] + [
        round(sum(data[a][s].uncore_energy()
                  / data[a][Scheme.SRAM_64TSB].uncore_energy()
                  for a in APPS) / len(APPS), 3)
        for s in SCHEMES
    ])
    print(format_table(
        ["app"] + [s.value for s in SCHEMES], rows,
        title="Figure 8: un-core energy normalised to SRAM-64TSB"))

    # Every STT-RAM scheme saves energy on every application.
    for app in APPS:
        base = data[app][Scheme.SRAM_64TSB].uncore_energy()
        for scheme in SCHEMES[1:]:
            assert data[app][scheme].uncore_energy() < base, (app, scheme)

    # Average saving in the paper's ballpark (54%); leakage-dominated,
    # so it is insensitive to the exact activity levels.
    avg_saving = sum(savings) / len(savings)
    assert 0.35 < avg_saving < 0.70

    # All three proposed schemes save near-identical energy (the paper's
    # observation: the saving comes from the cells, not the scheme).
    for app in APPS:
        values = [data[app][s].uncore_energy() for s in SCHEMES[2:]]
        spread = (max(values) - min(values)) / max(values)
        assert spread < 0.15, app
