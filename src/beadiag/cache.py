"""Cache of computed spaces: one in-process memo over on-disk entries.

Disk entries are pickles keyed by a content hash of (cache version, kind,
parameters), each followed by the sha256 digest of its pickle bytes;
writes go through a temp file and an atomic rename.  An entry without a
matching digest, one that fails to load for any other reason, or one that
loads as the wrong type, is a miss, so the space is built again.  The
modules that only disk access needs are imported on first use, so a
process that never reads or writes an entry does not load them
(``hashlib`` alone maps OpenSSL, about 3.5 MB).
"""

from __future__ import annotations

import os

CACHE_VERSION = 3
_DIGEST_SIZE = 32  # bytes of a sha256 digest

_active_dir = None
_spaces = {}  # (kind, params) -> space, for the life of the process


def set_cache_dir(path):
    """Enable the on-disk cache (None disables it)."""
    global _active_dir
    if path is None:
        _active_dir = None
        return
    os.makedirs(path, exist_ok=True)
    _active_dir = path


def cache_dir():
    return _active_dir


def _entry_path(kind, params):
    import hashlib  # disk access only, see the module docstring

    digest = hashlib.sha256(
        repr((CACHE_VERSION, kind, params)).encode("utf-8")
    ).hexdigest()
    return os.path.join(_active_dir, "%s-%s.pkl" % (kind, digest[:32]))


def _digest(payload):
    import hashlib  # disk access only

    return hashlib.sha256(payload).digest()


def get(kind, params, cls=object):
    """The stored object, or None on a miss: no entry, one without a
    matching digest, one that does not load, or one that is not a ``cls``."""
    if _active_dir is None:
        return None
    import pickle  # disk access only

    path = _entry_path(kind, params)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        payload, digest = data[:-_DIGEST_SIZE], data[-_DIGEST_SIZE:]
        if _digest(payload) != digest:  # edited, truncated, or without one
            return None
        obj = pickle.loads(payload)
    except Exception:  # unreadable, or naming a missing class
        return None
    return obj if isinstance(obj, cls) else None


def put(kind, params, obj):
    if _active_dir is None:
        return
    import pickle  # disk access only
    import tempfile

    path = _entry_path(kind, params)
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    fd, tmp = tempfile.mkstemp(dir=_active_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload + _digest(payload))
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def space(kind, params, cls, build):
    """The space stored under (kind, params): from the in-process memo, else
    a ``cls`` entry on disk, else ``build()``, which is then stored in both."""
    memo_key = (kind, params)
    obj = _spaces.get(memo_key)
    if obj is None:
        obj = get(kind, params, cls)
        if obj is None:
            obj = build()
            put(kind, params, obj)
        _spaces[memo_key] = obj
    return obj
