"""Registry mapping the paper's tables/figures to benchmark targets.

DESIGN.md's per-experiment index lives here in executable form: each
experiment id (``fig5`` … ``table7``, plus ablations/extensions) maps
to the ``benchmarks/`` file that regenerates it.  The CLI's
``experiment`` subcommand uses this to launch individual
reproductions, and a test pins the registry to the files actually on
disk.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Experiment", "EXPERIMENTS", "experiment_command"]


@dataclass(frozen=True)
class Experiment:
    """One reproducible experiment from the paper's evaluation."""

    key: str
    paper_item: str
    description: str
    bench_file: str


EXPERIMENTS: dict[str, Experiment] = {
    e.key: e
    for e in (
        Experiment(
            "table4", "Table IV",
            "dataset statistics, original vs stand-in",
            "bench_table4_datasets.py",
        ),
        Experiment(
            "fig5", "Figure 5",
            "GR effectiveness vs number of sampled graphs",
            "bench_fig5_theta_effectiveness.py",
        ),
        Experiment(
            "fig6", "Figure 6",
            "GR running time vs number of sampled graphs",
            "bench_fig6_theta_runtime.py",
        ),
        Experiment(
            "table5", "Table V",
            "Exact vs GreedyReplace under the TR model",
            "bench_table5_exact_vs_gr_tr.py",
        ),
        Experiment(
            "table6", "Table VI",
            "Exact vs GreedyReplace under the WC model",
            "bench_table6_exact_vs_gr_wc.py",
        ),
        Experiment(
            "table7", "Table VII",
            "RA/OD/AG/GR expected spread across datasets and budgets",
            "bench_table7_heuristics.py",
        ),
        Experiment(
            "fig7", "Figure 7",
            "running time of BG/AG/GR under the TR model",
            "bench_fig7_runtime_tr.py",
        ),
        Experiment(
            "fig8", "Figure 8",
            "running time of BG/AG/GR under the WC model",
            "bench_fig8_runtime_wc.py",
        ),
        Experiment(
            "fig9", "Figure 9",
            "running time vs budget (Facebook/DBLP stand-ins)",
            "bench_fig9_budget.py",
        ),
        Experiment(
            "fig10", "Figure 10",
            "GR running time vs number of seeds (TR model)",
            "bench_fig10_seeds_tr.py",
        ),
        Experiment(
            "fig11", "Figure 11",
            "GR running time vs number of seeds (WC model)",
            "bench_fig11_seeds_wc.py",
        ),
        Experiment(
            "ablation-estimator", "§V-C",
            "dominator-tree estimator vs per-candidate MCS",
            "bench_ablation_ag_vs_bg.py",
        ),
        Experiment(
            "ablation-gr", "§V-D",
            "GR vs its components (AG / OutNeighbors)",
            "bench_ablation_gr_components.py",
        ),
        Experiment(
            "ablation-dominators", "§V-B3",
            "Lengauer–Tarjan vs iterative dominator construction",
            "bench_ablation_dominators.py",
        ),
        Experiment(
            "ablation-samples", "(extension)",
            "fresh samples per round vs one fixed pool",
            "bench_ablation_sample_reuse.py",
        ),
        Experiment(
            "ext-triggering", "§V-E",
            "AG/GR under the Linear Threshold triggering model",
            "bench_ext_triggering.py",
        ),
        Experiment(
            "engine-throughput", "(extension)",
            "scalar vs vectorized vs pooled vs sketch spread oracle",
            "bench_engine_throughput.py",
        ),
        Experiment(
            "sketch-vs-mc", "§V-B/C",
            "dominator-tree sketch index vs vectorized Monte Carlo",
            "bench_sketch_vs_mc.py",
        ),
        Experiment(
            "sketch-build", "§V-B3",
            "batched array-native sketch construction vs legacy Python",
            "bench_sketch_build.py",
        ),
        Experiment(
            "sketch-query", "§V-C",
            "rebased greedy selection loop vs a rebuild per step",
            "bench_sketch_query.py",
        ),
        Experiment(
            "mmap-artifacts", "(extension)",
            "persisted sketch artifacts: mmap rehydrate vs cold build",
            "bench_mmap_artifacts.py",
        ),
        Experiment(
            "service-latency", "(extension)",
            "warm repro.service queries vs cold single-shot CLI",
            "bench_service_latency.py",
        ),
        Experiment(
            "graph-updates", "(extension)",
            "incremental delta apply vs cold rebuild on edge mutations",
            "bench_graph_updates.py",
        ),
        Experiment(
            "service-saturation", "(extension)",
            "client-ladder saturation knee, shed/executor telemetry, "
            "and sampling-profiler overhead",
            "bench_service_saturation.py",
        ),
    )
}


def experiment_command(key: str) -> list[str]:
    """The pytest invocation that reproduces experiment ``key``."""
    experiment = EXPERIMENTS.get(key)
    if experiment is None:
        raise KeyError(
            f"unknown experiment {key!r}; available: "
            + ", ".join(EXPERIMENTS)
        )
    return [
        "pytest",
        f"benchmarks/{experiment.bench_file}",
        "--benchmark-only",
        "-s",
    ]
