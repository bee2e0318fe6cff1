"""Incremental matrix exponentials for nested block upper triangular
matrices, with polynomial diffusion generators and Hermite-series option
pricing on top."""

from .bench import (
    BenchRecord,
    MethodSpec,
    RandomInstanceSpec,
    eigenvector_condition,
    generate_instance,
    parse_method,
    run_benchmark,
    write_bench_csv,
)
from .blocks import (
    BlockColumn,
    BlockTriangularMatrix,
    Partition,
    matrix_from_columns,
    read_column_stream,
    write_column_stream,
)
from .dense import (
    LuFactors,
    SingularMatrixError,
    as_matrix,
    lu_factor,
    lu_solve,
    one_norm,
    read_matrix,
    read_partition,
    rel_error_fro,
    write_matrix,
    write_partition,
)
from .generators import (
    HestonParams,
    JacobiParams,
    Polynomial,
    PolynomialOperatorSpec,
    apply_generator,
    basis_index,
    basis_size,
    basis_values,
    build_generator_matrix,
    degree_monomials,
    generator_block_columns,
    heston_norm_bound,
    heston_spec,
    jacobi_norm_bound,
    jacobi_spec,
    norm_bound,
    scaled_spec,
    shifted_norm_bound,
)
from .incremental import IncrementalExpState, StepReport, run_adaptive, run_fixed
from .pade import (
    THETA_13,
    PadeCoefficients,
    expm_baseline,
    pade_coefficients,
    scaling_power,
)
from .pricing import (
    PriceLedgerRow,
    PriceResult,
    PricingConfig,
    conditional_moment,
    fourier_coefficient,
    hermite_moment,
    hermite_vector,
    hermite_y_coefficients,
    price_call,
    rescaled_basis,
    scaling_from_bound,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
