"""Benchmark harness reproducing every figure of the paper's Section 6.

The public names below are imported lazily, on first access, so that
``python -m repro.bench.perf`` and ``python -m repro.bench.regression``
run their module as ``__main__`` without the package having imported
it first.
"""

import importlib

#: submodule -> the public names it defines.
_PUBLIC = {
    "baselines": ("baseline_tid_scan",),
    "export": (
        "figure_to_csv",
        "figure_to_dict",
        "load_json",
        "write_csv",
        "write_json",
    ),
    "figures": (
        "ALL_FIGURES",
        "ablation_adaptive_scheduler",
        "ablation_buffer_capacity",
        "ablation_cost_model",
        "ablation_hypermodel_generality",
        "ablation_multi_device",
        "ablation_parallel_contention",
        "ablation_scheduler_overhead",
        "ablation_sharing_degree",
        "ablation_window_tuning",
        "buffer_pin_bound",
        "depth_first_window_invariance",
        "figure_11",
        "figure_13",
        "figure_14",
        "figure_15",
        "figure_16",
    ),
    "harness": (
        "ExperimentConfig",
        "ExperimentResult",
        "clear_database_cache",
        "get_database",
        "run_experiment",
        "sweep",
    ),
    "regression": ("RegressionReport", "compare_documents", "compare_files"),
    "report": ("FigureResult", "render", "render_all"),
    "service": (
        "figure_service",
        "figure_service_cache",
        "figure_service_scaling",
    ),
    "volcano": ("figure_volcano",),
}
_MODULE_OF = {
    name: module for module, names in _PUBLIC.items() for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import the submodule defining ``name`` on first access."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
