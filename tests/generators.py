"""Generated complexes larger or stranger than the bundled five, as
``complex_from_dict`` documents."""


def l_shape(k: int) -> dict:
    """A k x k grid of unit squares with corner (0, 0), minus the squares
    whose coordinates are both at least k // 2: an L whose geodesics bend
    at the reflex vertex (k // 2, k // 2).  ``quadrant_window`` is the case
    k = 4, moved by (-2, -2).
    """
    h = k // 2
    return {"ambient_dim": 2, "cells": [{"base": [x, y], "axes": [0, 1]}
                                        for x in range(k) for y in range(k) if x < h or y < h]}
