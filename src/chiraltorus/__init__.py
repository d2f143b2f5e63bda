"""Exact-arithmetic workbench for chiral differential operators on abelian
varieties and for the free boson on a torus.

Two strata share one substrate (Gaussian-rational linear algebra):

* a Fourier-Mukai transform acting on isomorphism classes of chiral and
  twisted differential operators, and
* a quasiclassical-to-quantum pipeline: variational calculus on the
  cylinder, Noether currents, coisson brackets of Fourier modes, and the
  lattice Fock quantization with T-duality and locality checks.

All computations are exact; there is no floating point anywhere.
"""

from types import ModuleType as _ModuleType

from .exactlin import ExactScalar, RationalMatrix, AltTensor, alt_pullback
from .exactlin import (
    ChiraltorusError,
    DimensionMismatch,
    InvariantError,
    PreconditionError,
    SingularMatrix,
)
from .chiral_fm import (
    CdoIsoClass,
    CdoMorphism,
    NondegClass,
    TdoIsoClass,
    fm_cdo,
    fm_cdo_morphism,
    fm_linear,
    fm_linear_differential,
    fm_tdo,
    vertex_algebroid_pairing,
)
from .jetcalc import (
    DiffPoly,
    Lagrangian,
    NonLinearEL,
    NotASymmetry,
    NotFirstOrder,
    VariationalForm,
    boson_circle_lagrangian,
    euler_lagrange,
    gen_conformal,
    gen_sigma,
    gen_tau,
    gen_translation,
    noether,
    parse_expr,
    poly_str,
    restrict_to_sol0,
    torus_lagrangian,
    variational_one_form,
)
from .coisson import (
    BracketTable,
    DeltaExpansion,
    FourierClass,
    LocalDensity,
    NotADensity,
    UnknownFamily,
    b_shift,
    boson_table,
    density_bracket,
    dz_density,
    dzb_density,
    fourier_bracket,
    from_tau_jets,
    generator_density,
    hamiltonian_flow,
    jacobi_residual,
    mode_structure_constants,
    normal_form,
)
from .fockq import (
    BiSeries,
    CutoffExceeded,
    FockTruncation,
    FormalUnitValue,
    LatticeModel,
    ModelMismatch,
    NotAntisymmetric,
    NotInLattice,
    NotPositiveDefinite,
    QSeries,
    Sector,
    SingularLattice,
    SparseOp,
    TwoSidedFock,
    UnitScalar,
    build_model,
    central_charge,
    character,
    chiral_sectors,
    enumerate_sectors,
    ko_locality,
    load_model,
    locality_pairs,
    one_dim_model,
    partition_function,
    spectrum_point,
    t_dual,
    vertex_exponents,
)

# every public name imported above, and nothing else
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]

__version__ = "0.1.0"
