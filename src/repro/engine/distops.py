"""Helpers for message-passing schedule execution.

The distributed view of a schedule keeps a strict discipline: *control*
(step structure, pivot bookkeeping, who-needs-what plans) is global —
the engine is a simulator and may orchestrate freely — but *matrix
data* lives only in per-rank stores and crosses rank boundaries only
through counted :class:`~repro.machine.comm.Machine` operations.  These
helpers implement the recurring movement patterns of the 2.5D
schedules:

* :func:`ship` — materialize a sub-block at its owner and move it to a
  destination rank (point-to-point, counted);
* :func:`fiber_reduce_subset` — the layered reduction of Algorithm 1
  steps 1 and 5: sum a row subset of one partial tile over the ``c``
  layers onto a chosen layer's rank;
* :func:`distribute_rows_1d` — the 1D panel scatter of steps 4 and 6:
  spread panel rows contiguously over all ranks;
* :func:`assemble_cols_1d` — the column-chunk counterpart used for the
  A01 panel, where each destination needs *all* rows of its column
  chunk gathered from several sources;
* :func:`plane_pieces`, :func:`fan_in` — the 2.5D fan-out of steps 8
  and 10: cut the 1D chunks into per-(grid index, layer) pieces once,
  then ship each rank its pieces and join them on arrival;
* :func:`bcast_copy`, :func:`swap_rows_2d`, :func:`maxloc_allreduce` —
  the recurring patterns of the 2D block-cyclic schedules (panel/tile
  broadcasts, cross-matrix pivot-row exchange, MAXLOC pivot search),
  promoted here from the retired special-cased ``distributed2d`` module
  so ScaLAPACK LU/Cholesky and the 2.5D SUMMA share them.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from ..machine.comm import Machine
from ..machine.grid import ProcessorGrid3D

__all__ = [
    "ship",
    "fiber_reduce_subset",
    "distribute_rows_1d",
    "assemble_cols_1d",
    "plane_pieces",
    "fan_in",
    "bcast_copy",
    "swap_rows_2d",
    "maxloc_allreduce",
]


def ship(machine: Machine, src: int, dst: int, key: Hashable,
         block: np.ndarray) -> None:
    """Place ``block`` in ``src``'s store and move it to ``dst``.

    Packing a sub-block at its owner is a local (free) operation; the
    move is a counted point-to-point transfer.  After the call ``dst``
    holds ``key``; the transient copy at ``src`` is dropped.
    """
    machine.store(src).put(key, np.ascontiguousarray(block))
    if dst != src:
        machine.send(src, dst, key)
        machine.store(src).discard(key)


def bcast_copy(machine: Machine, src: int, src_key: Hashable,
               group: Sequence[int], key: Hashable) -> None:
    """Broadcast the block stored under ``src_key`` at ``src`` to every
    rank in ``group`` under the transient key ``key``.

    Unlike a bare :meth:`Machine.bcast` this does not require the block
    to already sit under the destination key, so a schedule can fan the
    same tile out along several communicators (e.g. a Cholesky panel
    tile along both its grid row and its grid column) without the
    copies shadowing each other.  ``src`` must be in ``group``.
    """
    machine.store(src).put(key, machine.store(src).get(src_key))
    machine.bcast(src, group, key)


def swap_rows_2d(machine: Machine, lay, name: str, g1: int,
                 g2: int) -> None:
    """Exchange global rows ``g1`` and ``g2`` of block-cyclic matrix
    ``name`` across every block column (the ``laswp`` of a pivoted 2D
    schedule).

    Per block column the two row segments either share an owner (a free
    local swap) or travel between the two owners as counted
    point-to-point messages — both directions move, matching the 2D
    trace's ``2 * nb * width`` swap charge.
    """
    if g1 == g2:
        return
    bi1, i1 = divmod(g1, lay.mb)
    bi2, i2 = divmod(g2, lay.mb)
    for bj in range(lay.nblocks):
        r1 = lay.owner_rank(bi1, bj)
        r2 = lay.owner_rank(bi2, bj)
        t1 = machine.store(r1).get((name, bi1, bj))
        t2 = machine.store(r2).get((name, bi2, bj))
        if r1 == r2:
            row = t1[i1].copy()
            t1[i1] = t2[i2]
            t2[i2] = row
            continue
        ship(machine, r1, r2, ("swap", g1, bj), t1[i1].copy())
        ship(machine, r2, r1, ("swap", g2, bj), t2[i2].copy())
        t1[i1] = machine.store(r1).get(("swap", g2, bj))
        t2[i2] = machine.store(r2).get(("swap", g1, bj))
        machine.store(r1).discard(("swap", g2, bj))
        machine.store(r2).discard(("swap", g1, bj))


def maxloc_allreduce(machine: Machine, key: Hashable,
                     entries: Mapping[int, tuple[float, int]],
                     ) -> tuple[float, int]:
    """Counted MAXLOC allreduce of per-rank ``(value, index)`` pairs.

    Every participating rank contributes a 2-word ``(value, index)``
    block — the ``MPI_MAXLOC`` payload of a distributed pivot search —
    and the words move through a real :meth:`Machine.allreduce`.  The
    winning pair itself is resolved here in control space (elementwise
    max of heterogeneous pairs is not an argmax), matching the
    simulator's discipline that *control* is global while *data
    movement* is counted.  Ties resolve to the smallest index, the
    first-occurrence convention of ``getrf``.
    """
    group = sorted(entries)
    for r in group:
        machine.store(r).put(key, np.asarray(entries[r], dtype=np.float64))
    machine.allreduce(group, key, op="max")
    for r in group:
        machine.store(r).discard(key)
    return max(entries.values(), key=lambda e: (e[0], -e[1]))


def fiber_reduce_subset(machine: Machine, grid: ProcessorGrid3D,
                        bi: int, bj: int, rows_local: np.ndarray,
                        k_root: int, tile_key: Hashable,
                        out_key: Hashable) -> int:
    """Sum rows ``rows_local`` of partial tile ``(bi, bj)`` over layers.

    Every layer's owner of tile ``(bi, bj)`` holds its partial
    contribution under ``tile_key``; the reduced block lands on layer
    ``k_root``'s owner under ``out_key`` (returned rank).  The root
    receives ``(c-1) * len(rows_local) * width`` words — the flat
    reduce accounting of Algorithm 1's layered reductions.
    """
    fiber = [grid.rank(bi % grid.rows, bj % grid.cols, k)
             for k in range(grid.layers)]
    root = fiber[k_root]
    for r in fiber:
        tile = machine.store(r).get(tile_key)
        machine.store(r).put(out_key, tile[rows_local, :])
    machine.reduce(root, fiber, out_key)
    for r in fiber:
        if r != root:
            machine.store(r).discard(out_key)
    return root


def distribute_rows_1d(machine: Machine,
                       pieces: Sequence[tuple[int, np.ndarray, np.ndarray]],
                       nranks: int, key_tag: Hashable,
                       ) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """1D-scatter panel rows contiguously over all ranks.

    ``pieces`` is ``(owner_rank, global_row_ids, block)`` triples with
    distinct row ids; the union of rows, ordered by global id, is split
    into ``nranks`` contiguous chunks, chunk ``r`` assembled in rank
    ``r``'s store under ``(key_tag, "1d")``.  Each source ships its
    rows of a chunk as one block, sources in order of their first row.
    Returns per-rank ``(row_ids, block)`` (block None for empty
    chunks).  Only cross-rank pieces are counted.
    """
    if not pieces:
        return [(np.zeros(0, dtype=int), None) for _ in range(nranks)]
    ids = np.concatenate([np.asarray(g, dtype=int) for _, g, _ in pieces])
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    owners = np.repeat([int(o) for o, _, _ in pieces],
                       [len(g) for _, g, _ in pieces])[order]
    rows = np.concatenate([b for _, _, b in pieces])[order]
    out: list[tuple[np.ndarray, np.ndarray | None]] = []
    lo = 0
    for dst, chunk in enumerate(np.array_split(ids, nranks)):
        hi = lo + chunk.size
        if chunk.size == 0:
            out.append((chunk, None))
            continue
        own, part = owners[lo:hi], rows[lo:hi]
        chunk_block = np.empty_like(part)
        srcs, first = np.unique(own, return_index=True)
        for src in srcs[np.argsort(first)].tolist():
            mask = own == src
            chunk_block[mask] = machine.deliver(src, dst, (key_tag, "s", src),
                                                part[mask])
        machine.store(dst).put((key_tag, "1d"), chunk_block)
        out.append((chunk, chunk_block))
        lo = hi
    return out


def assemble_cols_1d(machine: Machine,
                     pieces: Sequence[tuple[int, np.ndarray, np.ndarray,
                                            np.ndarray]],
                     row_order: np.ndarray, nranks: int,
                     key_tag: Hashable,
                     ) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """1D-scatter panel *columns* over all ranks, assembling full rows.

    ``pieces`` is ``(owner_rank, row_ids, col_ids, block)``; every
    destination needs all ``row_order`` rows of its contiguous column
    chunk, so each source ships the intersection of its piece with the
    chunk and the destination stitches them in ``row_order`` under
    ``(key_tag, "1d")``.  Returns per-rank ``(col_ids, block)``.
    """
    row_order = np.asarray(row_order, dtype=int)
    col_order = np.unique(np.concatenate(
        [np.zeros(0, dtype=int)]
        + [np.asarray(cids, dtype=int) for _, _, cids, _ in pieces]))
    chunks = np.array_split(col_order, nranks)
    sizes = [chunk.size for chunk in chunks]
    dst_of = np.repeat(np.arange(nranks), sizes)
    start = np.cumsum([0] + sizes)
    row_pos = np.zeros(row_order.max(initial=-1) + 1, dtype=int)
    row_pos[row_order] = np.arange(row_order.size)
    # Which destination each piece column goes to, worked out per
    # piece; the ships then run destination by destination.
    per_dst: list[list[tuple]] = [[] for _ in range(nranks)]
    for idx, (src, rids, cids, block) in enumerate(pieces):
        pos = np.searchsorted(col_order, np.asarray(cids, dtype=int))
        dsts = dst_of[pos]
        ri = row_pos[np.asarray(rids, dtype=int)]
        for dst in np.unique(dsts).tolist():
            csel = np.flatnonzero(dsts == dst)
            per_dst[dst].append((idx, src, block[:, csel], ri,
                                 pos[csel] - start[dst]))
    out: list[tuple[np.ndarray, np.ndarray | None]] = []
    for dst, chunk in enumerate(chunks):
        if chunk.size == 0:
            out.append((chunk, None))
            continue
        acc = np.zeros((len(row_order), chunk.size))
        for idx, src, sub, ri, ci in per_dst[dst]:
            acc[np.ix_(ri, ci)] = machine.deliver(
                src, dst, (key_tag, "s", src, idx), sub)
        machine.store(dst).put((key_tag, "1d"), acc)
        out.append((chunk, acc))
    return out


def plane_pieces(chunks: Sequence[tuple[np.ndarray, np.ndarray | None]],
                 v: int, parts: int, planes: int, layers: int,
                 axis: int = 0) -> list[list[dict[int, tuple]]]:
    """Cut 1D panel chunks into the pieces of the 2.5D fan-out.

    ``chunks[src]`` is ``(ids, block)`` (block None for an empty
    chunk): ``ids`` index ``block`` along ``axis`` and are global row
    (or column) ids, so entry ``g`` belongs to grid index
    ``(g // v) % parts``; the other axis holds the ``v`` reduction
    planes, of which layer ``k`` takes ``planes`` starting at
    ``k * planes``.  Returns ``out[q][k]``: a dict mapping, in
    ascending order, each source with entries on grid index ``q`` to
    ``(ids, piece)`` for layer ``k``.  Every selection is made once
    per grid index, not once per destination rank.
    """
    out: list[list[dict[int, tuple]]] = [
        [{} for _ in range(layers)] for _ in range(parts)]
    for src, (ids, block) in enumerate(chunks):
        if block is None:
            continue
        grid_of = (ids // v) % parts
        for q in np.unique(grid_of).tolist():
            pos = np.flatnonzero(grid_of == q)
            sub = np.take(block, pos, axis=axis)
            for k in range(layers):
                sl = slice(k * planes, (k + 1) * planes)
                out[q][k][src] = (ids[pos], sub[:, sl] if axis == 0
                                  else sub[sl, :])
    return out


def fan_in(machine: Machine, dst: int,
           streams: Sequence[tuple[tuple, Mapping[int, tuple], int]],
           ) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """Ship pieces from their sources to ``dst`` and join them there.

    ``streams`` holds ``(key, pieces, axis)`` triples, ``pieces``
    mapping a source rank to ``(ids, block)`` (see
    :func:`plane_pieces`).  Sources are visited in ascending order; at
    each, every stream with a piece from it sends the piece under
    ``(*key, src)``, and ``dst`` takes it out of its store on arrival:
    one counted :meth:`Machine.deliver` per piece, charged exactly as
    shipping the pieces one at a time.
    Returns per stream ``(ids, joined)``, the arrived blocks
    concatenated along ``axis`` in source order, or None for a stream
    without pieces.
    """
    got: list[tuple[list, list]] = [([], []) for _ in streams]
    srcs = sorted({src for _, pieces, _ in streams for src in pieces})
    for src in srcs:
        for (key, pieces, _), (ids, blocks) in zip(streams, got):
            if src in pieces:
                gids, piece = pieces[src]
                blocks.append(machine.deliver(src, dst, (*key, src), piece))
                ids.append(gids)
    return [(np.concatenate(ids), np.concatenate(blocks, axis=axis))
            if ids else None
            for (_, _, axis), (ids, blocks) in zip(streams, got)]
