"""Numerical toolkit for periodic strut-lattice metamaterials.

Homogenized fourth-order stiffness by periodic beam finite elements,
the Mandel-space tensor algebra (rotation representation, PSD maps,
Kelvin spectrum), evaluation metrics, dataset augmentation, and a
gradient-based stiffness design loop.
"""

__version__ = "0.1.0"

from .fe import (
    BatchItem,
    BeamMaterial,
    DisconnectedLatticeError,
    HomogenizationResult,
    SingularSystemError,
    beam_stiffness,
    homogenize,
    homogenize_batch,
    homogenize_windowed,
)
from .lattice import (
    Lattice,
    WindowedLattice,
    body_centred_cubic,
    diamond,
    displace_nodes,
    fold,
    perturb,
    relative_density,
    rotate_lattice,
    simple_cubic,
    tessellate,
    window,
)
from .metrics import (
    DirectionSet,
    MetricReport,
    aggregate_training_loss,
    l_comp,
    l_dir,
    l_equiv,
    negative_eig_fraction,
    negative_modulus_penalty,
)
from .optimize import DesignProblem, DesignTrace, fd_gradient, gradient, objective, solve
from .psd import PsdMethod, cholesky_assemble, equivariance_defect, project
from .tensor4 import (
    ElasticTensor4,
    KelvinSpectrum,
    MandelMatrix,
    RotationPair,
    VoigtMatrix,
    directional_moduli,
    directional_modulus,
    from_mandel,
    from_mandel_vector,
    kelvin_spectrum,
    mandel_rotation,
    rotate,
    rotate_mandel,
    strain_energy,
    to_mandel,
    to_mandel_vector,
    to_voigt,
    voigt_rotation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
