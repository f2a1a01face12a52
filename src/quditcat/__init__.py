"""Parity-adapted multi-quDit coherent states and phase-space localization.

Core objects: the symmetric Fock basis (`fock`), U(D)-spin coherent states
and operators (`coherent`), the Z2^(D-1) parity machinery and cat states
(`parity`), Husimi-function localization measures (`husimi`), the D-level
LMG model (`lmg`) and its variational analysis (`variational`).  The
`quditcat` command line drives sweep experiments over all of it.
"""

from .coherent import (
    NormError,
    SymmetricState,
    cs_expectation,
    cs_quadratic_expectation,
    dscs,
    overlap,
    spin_matrix,
)
from .fock import CapacityError, FockBasis, basis_size, log_multinomial, shared_basis
from .husimi import (
    HusimiGridSpec,
    IntegrationSpec,
    MomentReport,
    cat_moment_limit,
    cat_wehrl_limit,
    count_humps,
    haar_sample,
    husimi_grid,
    husimi_value,
    husimi_values,
    moment_analytic,
    moment_mc,
    renyi_wehrl,
    wehrl_entropy,
)
from .lmg import (
    LMGParams,
    SpectrumResult,
    build_hamiltonian,
    classify_parity,
    diagonalize,
)
from .parity import (
    CatSpec,
    all_parity_labels,
    apply_parity_flip,
    cat_amplitudes,
    cat_norm,
    character,
    dcat,
    parity_of,
    project_parity,
)
from .variational import (
    CriticalPoint,
    critical_point,
    energy_surface,
    fidelity,
    finite_N_energy,
    gs_energy_limit,
    maximize_overlap,
    overlap_objective,
    variational_cat,
)

__version__ = "0.1.0"
