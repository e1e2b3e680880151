"""Gaussian-state toolkit and secret-key security analysis.

The package is organized around a small covariance-matrix data model:

- :mod:`cvprivacy.symplectic` — symplectic forms, the uncertainty check,
  spectra and Williamson decompositions from one Hermitian eigenproblem,
  block/pseudo inverses.
- :mod:`cvprivacy.states` — the GaussianState model, physicality, purity,
  partial transposition, PPT/separability verdicts, quadrature densities.
- :mod:`cvprivacy.ops` — symplectic unitaries, general Gaussian CP maps,
  homodyne conditioning, tensor products.
- :mod:`cvprivacy.security` — purifications, eavesdropper conditional
  states, fidelity and error exponents, security conditions, reports.
- :mod:`cvprivacy.simulate` — Monte Carlo post-selection and advantage
  distillation with reproducible counter-based streams.
- :mod:`cvprivacy.fock` — truncated Fock-space oracle for certifying the
  Gaussian closed forms.
- :mod:`cvprivacy.cli` — the ``cvprivacy`` command-line entry point.
"""

from .exceptions import (
    ComplexSpectrum,
    CVPrivacyError,
    DimensionMismatch,
    InsufficientStatistics,
    NoAcceptedSamples,
    NotPositiveDefinite,
    NotSymplectic,
    NumericalFailure,
    SingularBlock,
    SingularKernel,
    StateSchemaError,
    TailTooHeavy,
    Unphysical,
)
from .fock import (
    FockState,
    fock_moments,
    gaussian_to_fock,
    uhlmann_fidelity,
)
from .ops import (
    GaussianChannel,
    HomodyneOutcome,
    apply_channel,
    apply_symplectic,
    attenuator_channel,
    beamsplitter_matrix,
    direct_sum,
    homodyne_x,
    reorder_modes,
    rotation_matrix,
    squeeze_matrix,
    tensor,
)
from .security import (
    ConditionalEveState,
    Purification,
    SecurityReport,
    analyze_state,
    collective_condition,
    eps_b,
    eps_ratio,
    eps_ratio_exponent,
    eve_conditional_state,
    eve_fidelity,
    eve_fidelity_exponent,
    gaussian_fidelity_equal_cov,
    general_key_condition,
    individual_condition,
    key_rate_estimate,
    purify,
    symmetric_collective_boundary,
)
from .simulate import (
    PostSelectedBits,
    ProtocolConfig,
    SimulationResult,
    SlopeFit,
    advantage_distillation,
    run_simulation,
    sample_postselected_bits,
    slope_check,
)
from .states import (
    UNDECIDED,
    BipartiteSplit,
    GaussianDensity,
    GaussianState,
    SymmetricStateParams,
    is_nppt,
    is_physical,
    is_separable,
    make_symmetric_state,
    partial_transpose,
    ppt_criterion_min_eig,
    purity,
    quadrature_density,
    random_physical_state,
    single_mode_thermal,
    state_from_json,
    state_to_json,
    symmetric_state,
    two_mode_squeezed,
    vacuum_state,
)
from .symplectic import (
    WilliamsonDecomposition,
    block_inverse,
    is_symplectic,
    momentum_flip,
    pseudo_inverse,
    psd_sqrt_of_similar,
    symplectic_eigenvalues,
    symplectic_form,
    williamson,
    x_projector,
)

__version__ = "0.1.0"
