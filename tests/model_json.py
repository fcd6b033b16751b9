"""The JSON shape growth_model_from_json reads, written from a model.

Test fixtures write model files with it; the package itself only reads
models.
"""

from weylgrowth.cones import cone_to_json
from weylgrowth.rootsystem import root_system_to_json, vec_to_json


def growth_model_to_json(G) -> dict:
    return {"root_system": root_system_to_json(G.root_system),
            "cone": cone_to_json(G.cone),
            "pieces": [vec_to_json(p) for p in G.pieces]}
