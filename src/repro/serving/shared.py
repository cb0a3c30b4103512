"""Publication of fleet assets (weights, traces): shared memory or wire.

One process packs a dict of named arrays into a single buffer; workers
consume *read-only zero-copy views* of it.  Two distribution paths
share the ``pack_state`` layout:

* **Same machine** (:class:`SharedArrayPack` / :class:`AttachedArrayPack`)
  -- the buffer lives in one ``multiprocessing.shared_memory`` segment
  and every worker maps it, so the GON weight matrices and offline
  trace stacks are materialised exactly once per machine, whatever the
  fleet size.
* **Remote worker** (:func:`fetch_array_pack`) -- a worker on another
  host cannot map the service's memory, so it fetches the packed
  buffer **once** over its scoring socket
  (:meth:`repro.serving.transports.TcpWorkerChannel.fetch_pack`) and
  caches it per process; views are rebuilt over the received bytes.
  The bytes are identical to the shared-memory path's, which is what
  keeps TCP-fleet records bit-identical to serial execution.

Layout and manifests come from :func:`repro.nn.serialization.pack_state`
/ :func:`~repro.nn.serialization.unpack_state`, so anything expressible
as a ``{name: ndarray}`` dict ships the same way.

Lifecycle: the owner keeps the :class:`SharedArrayPack` alive for the
campaign and calls :meth:`SharedArrayPack.unlink` when done; workers
wrap attachment in :class:`AttachedArrayPack` (a context manager) and
merely :meth:`AttachedArrayPack.close` their mapping.  Fetched packs
are plain process-local memory and need no unlink.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..nn.serialization import pack_state, unpack_state

__all__ = [
    "SharedPackHandle",
    "SharedArrayPack",
    "AttachedArrayPack",
    "FetchedArrayPack",
    "fetch_array_pack",
]


@dataclass(frozen=True)
class SharedPackHandle:
    """Picklable pointer to a published pack: segment name + layout."""

    shm_name: str
    nbytes: int
    manifest: Tuple[Tuple[str, Tuple[int, ...], str, int], ...]


class SharedArrayPack:
    """Owner side: publish ``{name: array}`` into one shared segment."""

    def __init__(self, arrays: Mapping[str, np.ndarray],
                 name: Optional[str] = None) -> None:
        buffer, manifest = pack_state(dict(arrays))
        shm_name = name or f"repro-pack-{secrets.token_hex(8)}"
        self._shm = shared_memory.SharedMemory(
            create=True, size=buffer.nbytes, name=shm_name
        )
        # Write straight from the packed array's memory -- no
        # intermediate bytes copy of the (potentially large) pack.
        self._shm.buf[:buffer.nbytes] = buffer.data
        self.handle = SharedPackHandle(
            shm_name=self._shm.name,
            nbytes=buffer.nbytes,
            manifest=tuple(manifest),
        )
        #: Read-only views into the segment (usable by the owner too).
        self.arrays: Dict[str, np.ndarray] = unpack_state(
            self._shm.buf, list(manifest)
        )

    def close(self) -> None:
        """Drop this process's mapping (views become invalid)."""
        self.arrays = {}
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment system-wide (owner's responsibility)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass


class AttachedArrayPack:
    """Worker side: read-only zero-copy views of a published pack."""

    def __init__(self, handle: SharedPackHandle) -> None:
        self.handle = handle
        # Note on the resource tracker: attaching registers the segment
        # too (until 3.13's ``track=False``).  Under the fork start
        # method -- the default on Linux, and what the fleet runner
        # uses -- children share the parent's tracker, so the extra
        # registration is a set no-op and the owner's ``unlink`` keeps
        # working.  Under spawn, a worker's private tracker may unlink
        # the *name* early at worker exit; existing mappings (ours and
        # the parent's) survive, so campaigns still complete.
        self._shm = shared_memory.SharedMemory(name=handle.shm_name)
        self.arrays: Dict[str, np.ndarray] = unpack_state(
            self._shm.buf, list(handle.manifest)
        )

    def __enter__(self) -> "AttachedArrayPack":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self.arrays = {}
        self._shm.close()


class FetchedArrayPack:
    """Worker side of the network asset path: a pack pulled over TCP.

    ``arrays`` are read-only zero-copy views over the received buffer
    (exactly the views :class:`AttachedArrayPack` exposes over shared
    memory); the buffer is ordinary process memory, so there is no
    segment to unlink.
    """

    def __init__(self, buffer: np.ndarray, manifest) -> None:
        self.arrays: Dict[str, np.ndarray] = unpack_state(buffer, list(manifest))

    def close(self) -> None:
        self.arrays = {}


#: Per-process cache of fetched packs: ``(service address, pack name)``.
_FETCHED_PACKS: Dict[Tuple[str, str], FetchedArrayPack] = {}


def fetch_array_pack(channel, name: str, cache: bool = True) -> FetchedArrayPack:
    """Fetch a published pack over a worker channel, once per process.

    ``channel`` is a :class:`repro.serving.transports.TcpWorkerChannel`
    (anything with ``address`` and ``fetch_pack``).  Repeat calls for
    the same ``(service, pack)`` reuse the cached copy instead of
    re-downloading -- remote workers pay the transfer exactly once,
    mirroring the attach-once discipline of the shared-memory path.
    """
    key = (str(channel.address), name)
    if cache and key in _FETCHED_PACKS:
        return _FETCHED_PACKS[key]
    buffer, manifest = channel.fetch_pack(name)
    pack = FetchedArrayPack(buffer, manifest)
    if cache:
        _FETCHED_PACKS[key] = pack
    return pack
