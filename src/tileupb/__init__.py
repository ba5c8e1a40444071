"""Tile structures on bipartite grids, the product bases they induce,
unextendibility certificates, bound entangled states, and
entanglement-assisted discrimination protocols."""

from .grid import (
    MAX_DIM,
    Tile,
    TileGridContentError,
    TileGridFormatError,
    TileStructure,
    ValidationReport,
    parse_tile_grid,
    serialize,
    validate,
)
from .rectangles import (
    UTileVerdict,
    UTileWitness,
    is_u_tile,
)
from .states import (
    STOPPER_LABEL,
    ProductState,
    UPBSet,
    build_upb,
    upb_state_labels,
)
from .families import (
    example1,
    fig2,
    five_tile,
    prop2,
    prop3,
)
from .verify import (
    OrthogonalityReport,
    SearchResult,
    UPBCertificate,
    UPBCheckReport,
    certify_upb,
    check_orthogonal_set,
    check_upb,
    seesaw_search,
)
from .ppt import PPTReport, ppt_report
from .locc import (
    ALICE,
    BOB,
    Branch,
    DiscriminationReport,
    Identify,
    LocalProjector,
    OnePartyFinish,
    attach_resource,
    build_theorem3_protocol,
    verify_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_DIM",
    "Tile",
    "TileGridContentError",
    "TileGridFormatError",
    "TileStructure",
    "ValidationReport",
    "parse_tile_grid",
    "serialize",
    "validate",
    "UTileVerdict",
    "UTileWitness",
    "is_u_tile",
    "STOPPER_LABEL",
    "ProductState",
    "UPBSet",
    "build_upb",
    "upb_state_labels",
    "example1",
    "fig2",
    "five_tile",
    "prop2",
    "prop3",
    "OrthogonalityReport",
    "SearchResult",
    "UPBCertificate",
    "UPBCheckReport",
    "certify_upb",
    "check_orthogonal_set",
    "check_upb",
    "seesaw_search",
    "PPTReport",
    "ppt_report",
    "ALICE",
    "BOB",
    "Branch",
    "DiscriminationReport",
    "Identify",
    "LocalProjector",
    "OnePartyFinish",
    "attach_resource",
    "build_theorem3_protocol",
    "verify_protocol",
    "__version__",
]
