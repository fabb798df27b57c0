"""Experiment drivers: one module per paper table/figure.

Every module exposes ``run(...) -> <Result>`` returning structured data
and ``render(result) -> str`` producing the human-readable report. The
CLI (``python -m repro.experiments [name ...]``) runs and prints them.
:data:`ALL_EXPERIMENTS` maps each CLI name to its module's dotted name;
importing this package imports no experiment, and the CLI imports a
module only when it runs or lists it.

| Module   | Reproduces                                            |
|----------|-------------------------------------------------------|
| fig1     | Fig. 1 — utilization bias heatmap, 4x8 fabric         |
| fig6     | Fig. 6 — design-space exploration scatter             |
| fig7     | Fig. 7 — BE heatmaps, baseline vs proposed            |
| fig8     | Fig. 8 — utilization PDFs + delay-over-time curves    |
| table1   | Table I — utilization and lifetime improvements       |
| table2   | Table II — area overhead + Sec. V-B latency check     |
| ablation | (extra) policy/pattern/monitor ablation study         |
| mapping  | (extra) mapper- vs allocation-level wear leveling     |
| routing  | (extra) context-line pressure under mapping regimes   |
| fleet    | (extra) fleet-scale aging campaign over traffic mixes |
| speculation | (extra) aging under a speculative GPP front end    |
"""

#: CLI name -> dotted name of the module that runs the experiment.
ALL_EXPERIMENTS = {
    "fig1": "repro.experiments.fig1",
    "fig6": "repro.experiments.fig6",
    "fig7": "repro.experiments.fig7",
    "fig8": "repro.experiments.fig8",
    "table1": "repro.experiments.table1",
    "table2": "repro.experiments.table2",
    "ablation": "repro.experiments.ablation",
    "mapping": "repro.experiments.mapping_ablation",
    "routing": "repro.experiments.routing_ablation",
    "fleet": "repro.experiments.fleet",
    "speculation": "repro.experiments.speculation",
}

__all__ = ["ALL_EXPERIMENTS"]
