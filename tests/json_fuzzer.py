"""Random mutations of diagram JSON documents for fuzzing the CLI boundary."""

import copy

# Junk values for replaced fields.  Bead words stay short: parsing "x1^N"
# allocates N letters.
JUNK = (
    None, True, False, 0, -1, 3, 10**6, 2.5, -0.0, 1e308,
    "", "x1", "x1^-2*x2", "x0", "y1", "uni", "tri", "1",
    [], [0], [0, 1, 2], ["x1"], [None], [[0]],
    {}, {"kind": "uni"}, {"kind": "tri", "cyclic": [0, 1, 2]}, {"from": 0, "to": 1},
)


def _slots(doc):
    """(container, key) of every value below the document root."""
    out = []
    stack = [doc]
    while stack:
        node = stack.pop()
        for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
            out.append((node, key))
            if isinstance(value, (dict, list)):
                stack.append(value)
    return out


def mutate(rng, doc, mutations=1):
    """A copy of the document with random fields replaced by junk, entries
    dropped, or entries duplicated."""
    doc = copy.deepcopy(doc)
    for _ in range(mutations):
        slots = _slots(doc)
        if not slots:
            break
        node, key = rng.choice(slots)
        kind = rng.choice(("junk", "drop", "duplicate"))
        if kind == "junk":
            node[key] = copy.deepcopy(rng.choice(JUNK))
        elif kind == "drop":
            del node[key]
        elif isinstance(node, list):
            node.insert(key, copy.deepcopy(node[key]))
        else:
            # a dict holds each key once: copy the value onto another field
            node[rng.choice(list(node))] = copy.deepcopy(node[key])
    return doc
