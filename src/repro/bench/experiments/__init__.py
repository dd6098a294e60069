"""One module per table/figure of the paper's evaluation.

Every module exposes ``run(context, ...) -> rows`` returning the data the
paper plots.  The mapping from experiment to module:

=========================  ==============================================
Figure 1 (a/b/c)           :mod:`repro.bench.experiments.fig01_motivation`
Figure 8                   :mod:`repro.bench.experiments.fig08_bounding_example`
Figure 9                   :mod:`repro.bench.experiments.fig09_bounding_comparison`
Figure 10                  :mod:`repro.bench.experiments.fig10_clipped_dead_space`
Figure 11 + Table I        :mod:`repro.bench.experiments.fig11_range_queries`
Figure 12                  :mod:`repro.bench.experiments.fig12_update_cost`
Figure 13                  :mod:`repro.bench.experiments.fig13_storage`
Figure 14                  :mod:`repro.bench.experiments.fig14_build_time`
Spatial joins (§V)         :mod:`repro.bench.experiments.joins`
Figure 15                  :mod:`repro.bench.experiments.fig15_scalability`
Ablations (k, τ, scoring)  :mod:`repro.bench.experiments.ablations`
=========================  ==============================================
"""
