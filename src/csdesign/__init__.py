"""Robust projection-matrix design for compressive sensing.

The library covers the full synthetic pipeline: coherence measures of a
CS system, training-free and SRE-regularized design objectives, their
conjugate-gradient solvers (with an optional relaxed-ETF Gram target),
orthogonal matching pursuit recovery, reproducible synthetic data, and
sweep harnesses that write flat CSV records.
"""

__version__ = "0.1.0"

from .coherence import (
    CoherenceReport,
    average_mutual_coherence,
    coherence_report,
    equivalent_dictionary,
    gram,
    mutual_coherence,
    normalize_columns,
    recoverable_sparsity,
    welch_bound,
)
from .experiments import (
    ExperimentParams,
    ExperimentRecord,
    evaluate_system,
    rho_mse,
    rho_psnr,
    run_convergence,
    run_dimension_sweeps,
    run_lambda_sweep,
    run_snr_sweep,
    write_records_csv,
)
from .matio import read_matrix_csv, write_matrix_csv
from .objective import ObjectiveSpec, objective_value, value_and_gradient
from .recovery import SparseCode, batch_recover, omp
from .solver import (
    DesignResult,
    RelaxedETFTarget,
    SolverConfig,
    design,
    project_to_relaxed_etf,
    random_projection,
    write_trace_csv,
)
from .streams import derive_seed, stream
from .synth import (
    Lemma1Report,
    SyntheticDataset,
    gen_dictionary,
    gen_signals,
    gen_sparse_codes,
    lemma1_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
