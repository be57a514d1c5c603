"""The seven braid-like groups, each as a presentation schema.

All groups are generated by crossing generators ``s[1..n-1]`` and, except
for the one- and zero-decorated classical cases, by a second family
``r[1..n-1]``.  They differ only in which of the standard relation
families they impose:

  comm_ss     s[i] s[j] = s[j] s[i]              |i-j| > 1
  braid_ss    s[i] s[i+1] s[i] = s[i+1] s[i] s[i+1]
  comm_rr     r[i] r[j] = r[j] r[i]              |i-j| > 1
  braid_rr    r[i] r[i+1] r[i] = r[i+1] r[i] r[i+1]
  mixed_l     r[i] s[i+1] s[i] = s[i+1] s[i] r[i+1]
  mixed_r     r[i+1] s[i] s[i+1] = s[i] s[i+1] r[i]
  comm_sr     s[i] r[j] = r[j] s[i]              |i-j| > 1
  comm_sr_eq  s[i] r[i] = r[i] s[i]
  invol_s     s[i]^2 = 1
  forbidden   s[i] r[i+1] r[i] = r[i+1] r[i] s[i+1]
  kill_r      r[i] = 1

Relators are stored as left-hand side times inverted right-hand side.
No group imposes ``kill_r``; the quotient maps in :mod:`.quotients` add it.
"""

from __future__ import annotations

from .schemas import PresentationSchema, RelatorSchema, aff, band, cmp, schema

FAMILIES = ("B", "S", "VB", "WB", "GVB", "SG", "UB")


def _core(n: int) -> dict[str, RelatorSchema]:
    i, j = aff("i"), aff("j")
    i1 = aff("i", 1)
    return {
        "comm_ss": schema(
            "comm_ss", ("i", "j"),
            [("s", [i], 1), ("s", [j], 1), ("s", [i], -1), ("s", [j], -1)],
            [band("i", "j")],
        ),
        "braid_ss": schema(
            "braid_ss", ("i",),
            [("s", [i], 1), ("s", [i1], 1), ("s", [i], 1),
             ("s", [i1], -1), ("s", [i], -1), ("s", [i1], -1)],
            [cmp("i", "<=", n - 2)],
        ),
        "comm_rr": schema(
            "comm_rr", ("i", "j"),
            [("r", [i], 1), ("r", [j], 1), ("r", [i], -1), ("r", [j], -1)],
            [band("i", "j")],
        ),
        "braid_rr": schema(
            "braid_rr", ("i",),
            [("r", [i], 1), ("r", [i1], 1), ("r", [i], 1),
             ("r", [i1], -1), ("r", [i], -1), ("r", [i1], -1)],
            [cmp("i", "<=", n - 2)],
        ),
        "mixed_l": schema(
            "mixed_l", ("i",),
            [("r", [i], 1), ("s", [i1], 1), ("s", [i], 1),
             ("r", [i1], -1), ("s", [i], -1), ("s", [i1], -1)],
            [cmp("i", "<=", n - 2)],
        ),
        "mixed_r": schema(
            "mixed_r", ("i",),
            [("r", [i1], 1), ("s", [i], 1), ("s", [i1], 1),
             ("r", [i], -1), ("s", [i1], -1), ("s", [i], -1)],
            [cmp("i", "<=", n - 2)],
        ),
        "comm_sr": schema(
            "comm_sr", ("i", "j"),
            [("s", [i], 1), ("r", [j], 1), ("s", [i], -1), ("r", [j], -1)],
            [band("i", "j")],
        ),
        "comm_sr_eq": schema(
            "comm_sr_eq", ("i",),
            [("s", [i], 1), ("r", [i], 1), ("s", [i], -1), ("r", [i], -1)],
        ),
        "invol_s": schema("invol_s", ("i",), [("s", [i], 2)]),
        "forbidden": schema(
            "forbidden", ("i",),
            [("s", [i], 1), ("r", [i1], 1), ("r", [i], 1),
             ("s", [i1], -1), ("r", [i], -1), ("r", [i1], -1)],
            [cmp("i", "<=", n - 2)],
        ),
        "kill_r": schema("kill_r", ("i",), [("r", [i], 1)]),
    }


# Which relation families each group imposes, in a fixed presentation order.
_RECIPES = {
    "B": ("comm_ss", "braid_ss"),
    "S": ("invol_s", "comm_ss", "braid_ss"),
    "VB": ("invol_s", "comm_ss", "braid_ss", "comm_rr", "braid_rr",
           "comm_sr", "mixed_r"),
    "WB": ("invol_s", "comm_ss", "braid_ss", "comm_rr", "braid_rr",
           "comm_sr", "mixed_r", "forbidden"),
    "GVB": ("comm_ss", "comm_rr", "comm_sr", "braid_ss", "braid_rr",
            "mixed_l", "mixed_r"),
    "SG": ("comm_ss", "comm_rr", "comm_sr", "braid_ss",
           "mixed_l", "mixed_r", "comm_sr_eq"),
    "UB": ("comm_ss", "braid_ss", "comm_rr", "comm_sr"),
}

_ONE_FAMILY = {"B", "S"}


def catalog(group_family: str, n: int) -> PresentationSchema:
    """Presentation schema of one of the seven groups, for n >= 3 strands."""
    if group_family not in _RECIPES:
        raise KeyError(f"unknown group family {group_family!r}; expected one of {FAMILIES}")
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    core = _core(n)
    relators = tuple(core[name] for name in _RECIPES[group_family])
    families = [("s", ((1, n - 1),))]
    if group_family not in _ONE_FAMILY:
        families.append(("r", ((1, n - 1),)))
    return PresentationSchema(group_family, n, tuple(families), relators)
