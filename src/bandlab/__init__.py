"""Plane-wave Galerkin band structures with k-dependent and blow-up-modified
variational spaces, plus the measurement harness built on top of them."""

from .analysis import (
    CellScan,
    ConvergenceStudy,
    NoBasisChangeOnPath,
    RegularityProbe,
    TooFewPoints,
    band_derivative_trace,
    convergence_study,
    energy_vs_cell_parameter,
    periodicity_report,
    regularity_probe,
)
from .blowup import (
    BlowupFunction,
    BlowupSpec,
    DominationViolated,
    IllPosedSpec,
    OrderTooHigh,
    SingularArgument,
    build_blowup,
)
from .fiber import (
    FiberMatrix,
    Scheme,
    assemble,
    kdependent_scheme,
    modified_scheme,
    project_modified_identity_check,
    uniform_scheme,
)
from .lattice import (
    EmptyBasis,
    KPointSet,
    Lattice,
    SingularLattice,
    basis_cardinality_bounds,
    enumerate_basis,
    kinetic_values,
    kpath,
    lattice_from_dict,
    new_lattice,
    uniform_grid,
)
from .observables import (
    FermiLevel,
    TruncationWarning,
    UnreachableFilling,
    fermi_level,
    idoe,
    idos,
)
from .potential import (
    BrokenHermitianSymmetry,
    FourierPotential,
    potential_from_coeffs,
    synth_power_law,
)
from .spectra import (
    BandCountExceedsBasis,
    BandStructure,
    EigenSolution,
    SolverFailure,
    compute_bands,
    eigh,
)

__version__ = "0.1.0"
