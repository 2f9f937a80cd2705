"""The paper's headline study in miniature: differential L1D injection.

Runs the same L1D transient campaign on all three setups — MaFIN-x86,
GeFIN-x86 and GeFIN-ARM — for a few benchmarks, as one study, and
prints the side-by-side classification, reproducing the *shape* of Fig. 3: MaFIN
reports a less vulnerable L1D than GeFIN (hypervisor masking + mirror
caches + aggressive load issue), while the two GeFIN ISAs sit close
together.

Usage::

    python examples/differential_l1d.py [injections] [bench1,bench2,...]
"""

import sys
import tempfile

from repro import figure_spec, run_study, study_figures


def main() -> int:
    injections = int(sys.argv[1]) if len(sys.argv) > 1 else 25
    benches = (sys.argv[2].split(",") if len(sys.argv) > 2
               else ["sha", "qsort", "cjpeg"])

    print(f"L1D differential study: {injections} injections per cell, "
          f"benchmarks: {', '.join(benches)}")

    def progress(unit_id, state, done, total):
        print(f"  [{done}/{total}] {unit_id} {state}")

    # The figure's cells run as one study: one golden run per
    # (setup, benchmark) pair, masks pruned by golden-trace analysis.
    spec = figure_spec(["l1d"], benches, injections=injections)
    with tempfile.TemporaryDirectory() as study_dir:
        result = run_study(spec, study_dir, progress=progress)
    (fig,) = study_figures(spec, result.classifications())
    print()
    print(fig.render())

    m = fig.average_vulnerability("MaFIN-x86")
    gx = fig.average_vulnerability("GeFIN-x86")
    ga = fig.average_vulnerability("GeFIN-ARM")
    print(f"Average L1D vulnerability: MaFIN-x86 {m:.1f}%  "
          f"GeFIN-x86 {gx:.1f}%  GeFIN-ARM {ga:.1f}%")
    print(f"Tool difference (GeFIN-x86 - MaFIN-x86): {gx - m:+.1f} points "
          f"(the paper reports +7.2 at full scale)")
    print(f"ISA difference (GeFIN-x86 - GeFIN-ARM): {gx - ga:+.1f} points "
          f"(the paper reports +0.55)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
