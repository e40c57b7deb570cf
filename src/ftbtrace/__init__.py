"""Front-to-back any-hit ray traversal on an emulated hardware pipeline.

The package has three layers: an emulator of the ray-tracing pipeline's
observable semantics (exclusive ray interval, any-hit/closest-hit callbacks,
accept-shrinks-tMax), a set of traversal kernels that iterate every hit
along a ray in guaranteed front-to-back order even through exact distance
ties, and a brute-force reference plus rendering rig that validates the
kernels differentially with zero tolerance.
"""

from .bvh import BuildOptions, BuiltScene, build_blas, build_scene, traverse
from .floatstep import (
    F32_MAX,
    F32_MIN_NORMAL,
    F32_MIN_SUBNORMAL,
    f32,
    f32_bits,
    f32_from_bits,
    just_above,
    just_below,
    ulp_distance,
)
from .geom import (
    Affine3,
    HitContext,
    IDENTITY,
    Ray,
    Vec3,
    affine_inverse,
    make_ray,
    translation,
)
from .hitorder import HitDesc, less, order_key, sort_hits
from .kernels import (
    CORRECT_KERNELS,
    FtbReport,
    KERNELS,
    Kernel,
    KernelStalled,
    Step,
    is_stable,
    iter_multi_hit_batches,
    iter_reject_repeats,
    run_kernel,
)
from .oracle import (
    OracleResult,
    check_rebuild_stability,
    oracle_all_hits,
    validate_kernel,
)
from .pipeline import (
    AhVerdict,
    TraceConfig,
    TraceFlags,
    TraceStats,
    trace,
)
from .render import (
    Camera,
    CountAll,
    MaxDepth,
    ProbDepth,
    camera_rays,
    compare_kernels,
    make_user_code,
    pixel_ray,
    pseudo_color,
    render_image,
    resolve_camera,
    run_validation,
)
from .scene import (
    GENERATORS,
    Geometry,
    Instance,
    Mesh,
    Scene,
    gen_abutting_boxes,
    gen_adversarial_order,
    gen_coplanar_stack,
    gen_instanced_grid,
    gen_leaf_reorder,
    load_manifest,
    load_obj,
    make_scene,
    scene_from_manifest,
    single_mesh_scene,
)

__version__ = "0.1.0"
