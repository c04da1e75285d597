"""The replay walker: the fast path of ``Multiprocessor.run``.

Every piece of cache state lives in flat arrays owned by the tag
stores, the R-cache and the TLB (DESIGN.md §13); the protocol code in
``TwoLevelHierarchy`` reads and writes them through block views.  This
module reads and writes the arrays directly.

:func:`run_soa` consumes the trace in bounded chunks, classifies every
reference of a chunk with vectorized array ops (L1 tag match + dirty
bit, TLB probe for physically-indexed level 1), and then walks the
chunk in :func:`_walk_chunk`, committing pure level-1 hits with a
handful of integer operations and escaping to
``TwoLevelHierarchy.access`` for everything else.  The commonest
misses are handled natively over the arrays (the miss handlers built
in :func:`run_soa`).  Chunk-boundary semantics (how a scalar escape
invalidates earlier classifications) are documented in DESIGN.md §13.
``_walk_chunk`` is the RPL005-audited function: it performs no
attribute lookups and no container allocation per reference.

``Multiprocessor.run_scalar`` is the reference loop the walker must
match bit for bit: ``TwoLevelHierarchy.access`` for every reference.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..cache.write_buffer import WriteBufferEntry
from ..common.errors import InclusionError, ProtocolError
from ..hierarchy.rcache import (
    S_BUF as _S_BUF,
    S_INCL as _S_INCL,
    S_RDIRTY as _S_RDIRTY,
    S_SHARED as _S_SHARED,
    S_VALID as _S_VALID,
    S_VDIRTY as _S_VDIRTY,
)
from ..hierarchy.stats import _L1_KEYS
from ..mmu.tlb import PID_SHIFT as _PID_SHIFT
from ..trace.record import RefKind
from ..trace.stream import chunk_iter

# Numeric reference-kind codes used by the vectorized classifier:
# INSTR=0, READ=1, WRITE=2, CSWITCH=3, CALL=4 (the chunk encoding of
# ``repro.trace.stream``).  Memory kinds come first so ``kind_code < 3``
# selects them, and the INSTR/READ/WRITE codes double as indices into
# the per-CPU hit accumulators (matching l1_hits_i/_r/_w).
_KIND_OBJS = (RefKind.INSTR, RefKind.READ, RefKind.WRITE)

# The exact key objects the scalar path mints (the f-strings in
# ``_L1_KEYS`` are not interned, and state digests compare pickles —
# which memoize strings by identity — so the walker must count into
# the *same* string objects, not merely equal ones).
_HIT_KEYS = tuple(_L1_KEYS[kind, True] for kind in _KIND_OBJS)
_MISS_KEYS = tuple(_L1_KEYS[kind, False] for kind in _KIND_OBJS)

# Bus transactions the native bus round issues, and their counter
# keys (``BusOp`` values; interned, like the scalar path's).
_READ, _RMW, _INV = 0, 1, 2
_BUS_KEYS = ("read_miss", "read_modified_write", "invalidate")

#: References per classification chunk and records per conversion batch.
_CHUNK = 8192
_BATCH = 1 << 16


# -- the fast replay loop ------------------------------------------------------


def _walk_chunk(
    s,
    e,
    code_l,
    sb_l,
    tg_l,
    w_l,
    ts_l,
    vp_l,
    off_l,
    cpu_l,
    pid_l,
    kc_l,
    refs_l,
    cnt_l,
    acc,
    tacc,
    vn,
    ticks,
    tags_a,
    flags_a,
    vers_a,
    ts_a,
    pols,
    tsets,
    wbs,
    drains,
    fms,
    esc,
    cs,
    tmget,
    tfrs,
    evls,
    dp,
    assoc,
    multi,
    wt,
    rr,
    split,
    pshift,
    psize,
    bbits,
    sbits,
    smask,
):
    """Commit one classified chunk (trace indices ``s..e``).

    This is the per-reference hot loop: RPL005 requires that it
    perform no attribute lookups and allocate no containers.  All
    object work happens through the prebound closures ``esc`` (escape
    one reference to the scalar protocol path), ``cs`` (context
    switch), and ``drains[c]`` (drain one write-buffer entry).

    ``mut`` tracks whether any scalar handler has run since the chunk
    was classified.  While False, the vectorized verdicts are exact.
    Once True, pure-looking references are revalidated against the
    live arrays: a cheap taint-set membership test first (scalar
    handlers report every level-1 slot they touch), then a way scan
    only for references whose set was actually touched.  Physically
    indexed level-1 references additionally recheck TLB residency via
    the slot map once any eviction has been logged.
    """
    mut = False
    i = -1
    for j in range(s, e):
        i += 1
        code = code_l[i]
        if code >= 3:
            if code == 3:
                cs(j)
                mut = True
            continue
        c = cpu_l[j]
        k = kc_l[j]
        if split and k:
            cl = c + c + 1
        elif split:
            cl = c + c
        else:
            cl = c
        slot = -1
        if not mut:
            if not code:
                if fms is None or not fms[c](j, k):
                    esc(j)
                mut = True
                continue
            sb = sb_l[i]
            w = w_l[i]
            g = sb + w
            if rr:
                slot = ts_l[i]
        else:
            if wt and k == 2:
                esc(j)
                continue
            if rr:
                # TLB keys are built here, from Python ints: packed in
                # int64 vectors they would wrap for pids >= 2**15.
                if evls[c]:
                    slot = tmget[c]((pid_l[j] << _PID_SHIFT) | vp_l[i], -1)
                elif code:
                    slot = ts_l[i]
                else:
                    slot = ts_l[i]
                    if slot < 0:
                        slot = tmget[c]((pid_l[j] << _PID_SHIFT) | vp_l[i], -1)
                if slot < 0:
                    if fms is None or not fms[c](j, k):
                        esc(j)
                    continue
                fr = tfrs[c][slot]
                if pshift >= 0:
                    pb = (fr << pshift) | off_l[i]
                else:
                    pb = fr * psize + off_l[i]
                bn = pb >> bbits
                tg = bn >> sbits
                sb = (bn & smask) * assoc
            else:
                sb = sb_l[i]
                tg = tg_l[i]
            if code and sb not in tsets[cl]:
                w = w_l[i]
                g = sb + w
            else:
                fa = flags_a[cl]
                ta = tags_a[cl]
                g = -1
                w = 0
                f = 0
                while w < assoc:
                    gi = sb + w
                    f = fa[gi]
                    if (f & 1) and ta[gi] == tg:
                        g = gi
                        break
                    w += 1
                if g < 0:
                    if fms is None or not fms[c](j, k):
                        esc(j)
                    continue
                if k == 2 and not (f & 4):
                    if fms is None or not fms[c](j, k):
                        esc(j)
                    continue
        refs_l[c] += 1
        cd = cnt_l[c] - 1
        if cd:
            cnt_l[c] = cd
        else:
            cnt_l[c] = dp
            if wbs[c]:
                drains[c]()
        if k == 2:
            v = vn[0]
            vn[0] = v + 1
            vers_a[cl][g] = v
            acc[c + c + c + 2] += 1
        else:
            acc[c + c + c + k] += 1
        if multi:
            pols[cl](sb // assoc, w)
        if rr:
            ts_a[c][slot] = ticks[c]
            ticks[c] += 1
            tacc[c] += 1


def run_soa(machine: Any, records: Any) -> tuple[int, dict[str, Any]]:
    """Replay *records* through *machine*'s hierarchies.

    Returns the number of memory references processed (CSWITCH/CALL
    records excluded), exactly like ``Multiprocessor._run_fast``, and
    the walker's meter: ``{"escapes": references escaped to
    TwoLevelHierarchy.access, "native": references the native miss
    handlers committed, "escapes_by": {reason: escapes}}``, the
    escapes counted by the screen's bail reason (``gate`` for a run
    outside the native gate; the values sum to ``escapes``).  Every
    other memory reference was a pure level-1 hit.
    """
    hiers = machine.hierarchies
    n_cpus = len(hiers)
    vc = machine.version_counter
    h0 = hiers[0]
    rr = not h0._virtual_l1
    incl = h0._inclusion
    pid_tags = h0._pid_tags
    wt = h0._write_through
    split = h0._split
    n_l1 = 2 if split else 1
    dp = h0.drain_period
    if any(h.drain_period != dp for h in hiers):
        raise ValueError("run_soa requires a uniform drain period")
    cfg = h0._l1s[0].config
    assoc = cfg.associativity
    multi = assoc > 1
    bbits = cfg.block_bits
    sbits = cfg.set_bits
    smask = cfg.set_mask
    # Pid-tagged level-1 tags are (vaddr >> tb) | (pid << (48 - tb)).
    pid_tag_shift = _PID_SHIFT - bbits - sbits
    pid_tag_limit = 1 << (63 - pid_tag_shift)
    tlb0 = h0.tlb
    psize = tlb0.layout.page_size
    pshift = tlb0._page_shift if tlb0._page_shift is not None else -1
    pmask = tlb0._page_mask
    tlb_assoc = tlb0.associativity
    tlb_sets = tlb0.n_sets

    # Flat views of every hierarchy's hot state, indexed by CPU (or by
    # cpu * n_l1 + level for the per-L1 groups).
    tags_a = []
    flags_a = []
    vers_a = []
    rps_a = []
    rpw_a = []
    rpb_a = []
    dls = []
    pols = []
    insts = []
    chs = []
    tsets: list[set[int]] = []
    for h in hiers:
        for l1 in h._l1s:
            store = l1.store
            tags_a.append(store.tags)
            flags_a.append(store.flags)
            vers_a.append(store.versions)
            rps_a.append(store.rp_set)
            rpw_a.append(store.rp_way)
            rpb_a.append(store.rp_sub)
            dls.append(store.dirty_log)
            pols.append(store.policy.on_access)
            insts.append(store.policy.on_install)
            chs.append(store.policy.choose)
            tsets.append(set())
    n_groups = len(tags_a)
    # Zero-copy numpy views over the scalar buffers, for the vectorized
    # classifier only (the walk reads/writes the buffers directly —
    # scalar indexing on bytearray/array is ~2x faster than on ndarray).
    tags_np = [np.frombuffer(a, dtype=np.int64) for a in tags_a]
    flags_np = [np.frombuffer(a, dtype=np.uint8) for a in flags_a]
    tlbs = [h.tlb for h in hiers]
    tpid_a = [np.frombuffer(t.pids, dtype=np.int64) for t in tlbs]
    tvpage_a = [np.frombuffer(t.vpages, dtype=np.int64) for t in tlbs]
    tframe_a = [np.frombuffer(t.frames, dtype=np.int64) for t in tlbs]
    tvalid_a = [np.frombuffer(t.valid, dtype=np.uint8) for t in tlbs]
    ts_a = [t.ts for t in tlbs]
    tfrs = [t._frames_py for t in tlbs]
    tmget = [t._map.get for t in tlbs]
    evls = [t.evict_log for t in tlbs]
    ticks = [t._tick for t in tlbs]
    wbs = [h._wb_entries for h in hiers]
    refs_l = [h._refs for h in hiers]
    cnt_l = [h._drain_countdown for h in hiers]
    vn = [vc.next_value]
    acc = [0] * (n_cpus * 3)
    tacc = [0] * n_cpus
    counts_l = [h._counts for h in hiers]
    tlb_counts = [t._counts for t in tlbs]
    refs0 = sum(refs_l)
    for log in dls:
        del log[:]
    for log in evls:
        del log[:]

    # Current batch of converted trace fields (rebound per batch; the
    # closures below see the rebinding through the shared cells).
    cpu_l: list[int] = []
    pid_l: list[int] = []
    kc_l: list[int] = []
    vad_l: list[int] = []
    cpu_np = pid_np = kind_np = vad_np = None

    def _merge_taint() -> None:
        for t in range(n_groups):
            log = dls[t]
            if log:
                tset = tsets[t]
                for g in log:
                    tset.add(g - g % assoc)
                del log[:]

    # [escapes, native commits]: the walker's meter.  Each escape is
    # also counted under the reason the native screen gave for its
    # bail (``fmiss`` sets ``why``), or ``gate`` when no screen runs.
    meter = [0, 0]
    escapes_by: dict[str, int] = {}
    why = "gate"

    def esc(j: int) -> None:
        """Escape one reference to the scalar protocol path."""
        meter[0] += 1
        escapes_by[why] = escapes_by.get(why, 0) + 1
        c = cpu_l[j]
        h = hiers[c]
        # Every hierarchy's access index, not only this one's: a peer
        # whose snoop rejects its state reports its own.
        for i in range(n_cpus):
            hiers[i]._refs = refs_l[i]
        h._drain_countdown = cnt_l[c]
        tlbs[c]._tick = ticks[c]
        vc.next_value = vn[0]
        h.access(pid_l[j], vad_l[j], _KIND_OBJS[kc_l[j]])
        refs_l[c] = h._refs
        cnt_l[c] = h._drain_countdown
        ticks[c] = tlbs[c]._tick
        vn[0] = vc.next_value
        _merge_taint()

    def cs(j: int) -> None:
        c = cpu_l[j]
        h = hiers[c]
        h._refs = refs_l[c]
        h.context_switch(pid_l[j])
        _merge_taint()

    def _mk_drain(c: int, h: Any):
        def _drain() -> None:
            h._refs = refs_l[c]
            h._drain_one()

        return _drain

    drains = [_mk_drain(c, h) for c, h in enumerate(hiers)]

    # Native scalar miss handlers.  The scalar protocol path costs
    # tens of microseconds per escape (view properties, AccessResult
    # allocation, enum dispatch); the dominant miss shapes — a clean
    # write hit, a level-2 hit filling level 1, and a level-2 miss —
    # are re-implemented directly over the arrays, with and without
    # inclusion.  When the access meets other CPUs' copies (a fill of
    # a block a peer holds, a write to a SHARED block), a native bus
    # round snoops every peer over its arrays as the scalar snoop
    # would.  A handler first *screens* the access with zero side
    # effects and returns False (caller escapes) for anything rare:
    # synonyms (inclusion bit), write-buffer interactions (buffer bit,
    # or without inclusion the block itself in the write buffer, its
    # own or a peer's), a write hit on a block whose level-2 parent is
    # gone, a peer state the scalar path would reject, and every
    # configuration the screen does not model (write-through,
    # write-update, bus observers, event tracers).  Once the screen
    # passes, the commit phase replicates ``TwoLevelHierarchy.access``
    # mutation-for-mutation and counter-for-counter.  The bus round
    # stands in for ``Bus.issue``, which would call the bus observer,
    # so an observed bus keeps every miss on the scalar path.
    native = (
        not wt
        and not h0._update_protocol
        and machine.bus.observer is None
        and all(
            h._tr_syn is None
            and h._tr_incl is None
            and h._tr_wb is None
            and h._tr_coh is None
            for h in hiers
        )
    )

    def _mk_fmiss(c: int, h: Any):
        t = tlbs[c]
        tmg = tmget[c]
        tfr_py = tfrs[c]
        tsb = ts_a[c]
        ttr = t.translate
        lay_tr = t.layout.translate
        rc = h.rcache
        rtg = rc.store.tags
        rfl = rc.store.flags
        sfl = rc.sub_flags
        svr = rc.sub_versions
        vpc = rc.vp_ci
        vps = rc.vp_set
        vpw = rc.vp_way
        cfg2 = rc.config
        assoc2 = cfg2.associativity
        multi2 = assoc2 > 1
        bbits2 = cfg2.block_bits
        sbits2 = cfg2.set_bits
        smask2 = cfg2.set_mask
        n_sub = rc.n_subentries
        sub_bits = h._sub_bits
        nsub_mask = ~(n_sub - 1)
        rpol = rc.store.policy
        r_onacc = rpol.on_access
        r_onins = rpol.on_install
        r_choose = rpol.choose
        rng2 = range(assoc2)
        rng1 = range(assoc)
        base_g = c * n_l1
        gtg = tags_a[base_g : base_g + n_l1]
        gfl = flags_a[base_g : base_g + n_l1]
        gvr = vers_a[base_g : base_g + n_l1]
        grs = rps_a[base_g : base_g + n_l1]
        grw = rpw_a[base_g : base_g + n_l1]
        grb = rpb_a[base_g : base_g + n_l1]
        gacc = pols[base_g : base_g + n_l1]
        gins = insts[base_g : base_g + n_l1]
        gch = chs[base_g : base_g + n_l1]
        gts = tsets[base_g : base_g + n_l1]
        counts_c = counts_l[c]
        wb = h.write_buffer
        wdeq = wbs[c]
        wcap = wb.capacity
        wb_counts = wb.stats._counts
        hist_rec = h.stats.writeback_intervals.record
        bus = h.bus
        bus_counts = bus.stats._counts
        mem = bus.memory
        mem_counts = mem.stats._counts
        mv = mem._versions
        mvget = mv.get
        # Every peer, in bus attach order (the hierarchies' order),
        # with what the screen and the bus round read and write: its
        # counters, R-cache tags, flags and subentry planes, level-1
        # groups (tags, flags, versions, taint set) and write buffer.
        peers = [
            (
                counts_l[pi],
                p.rcache.store.tags,
                p.rcache.store.flags,
                p.rcache.sub_flags,
                p.rcache.sub_versions,
                p.rcache.vp_ci,
                p.rcache.vp_set,
                p.rcache.vp_way,
                [
                    (tags_a[pg], flags_a[pg], vers_a[pg], tsets[pg])
                    for pg in range(pi * n_l1, pi * n_l1 + n_l1)
                ],
                wbs[pi],
            )
            for pi, p in enumerate(hiers)
            if pi != c
        ]
        peer_counts = [peer[0] for peer in peers]
        nsm1 = n_sub - 1

        def push_wb(pb: int, ver: int, f: int) -> None:
            # ``TwoLevelHierarchy._push_writeback`` for a dirty level-1
            # victim with flags *f*.
            if len(wdeq) >= wcap:
                counts_c["writeback_stalls"] += 1
                drain_n()
            swp = (f & 2) != 0
            wdeq.append(WriteBufferEntry(pb, ver, swp))
            wb_counts["pushes"] += 1
            counts_c["writebacks"] += 1
            if swp:
                wb_counts["swapped_pushes"] += 1
                counts_c["swapped_writebacks"] += 1
            lw = h._last_writeback_ref
            r_now = refs_l[c]
            if lw is not None:
                iv = r_now - lw
                if iv >= 1:
                    hist_rec(iv)
            h._last_writeback_ref = r_now

        def drain_n() -> None:
            # ``TwoLevelHierarchy._drain_one`` over the arrays.
            entry = wdeq.popleft()
            wb_counts["retires"] += 1
            pb = entry.pblock
            ver = entry.version
            bn2 = (pb << sub_bits) >> bbits2
            rb = (bn2 & smask2) * assoc2
            tg2 = bn2 >> sbits2
            w2 = 0
            while w2 < assoc2:
                gi2 = rb + w2
                if (rfl[gi2] & 1) and rtg[gi2] == tg2:
                    sg2 = gi2 * n_sub + (pb & nsm1)
                    sf2 = sfl[sg2]
                    if sf2 & _S_VALID:
                        if ver >= svr[sg2]:
                            sfl[sg2] = (sf2 & ~_S_BUF) | _S_RDIRTY
                            svr[sg2] = ver
                        else:
                            sfl[sg2] = sf2 & ~_S_BUF
                        return
                    break
                w2 += 1
            if incl:
                raise ProtocolError(
                    "write-buffer entry has no level-2 parent",
                    access_index=refs_l[c],
                    pblock=pb,
                )
            # Without inclusion the parent may be gone: the entry goes
            # straight to memory.
            bus_counts["write_back"] += 1
            mem_counts["writes"] += 1
            mv[pb] = ver

        def held_by_peer(rb: int, tg2: int, base_pb: int) -> bool:
            # Whether a level-2 miss of block (rb, tg2) meets a peer
            # copy: a peer's R-cache holds the block (any valid
            # subentry replies has-copy to some sub-block's read) or,
            # without inclusion, where every transaction also probes
            # the peer's level-1 halves (valid or swapped, by physical
            # tag) and write buffer (``_snoop_unshielded``), one of
            # those holds one of its sub-blocks.
            for _, prtg, prfl, _, _, _, _, _, pl1s, pwb in peers:
                pw = 0
                while pw < assoc2:
                    pgi = rb + pw
                    if (prfl[pgi] & 1) and prtg[pgi] == tg2:
                        return True
                    pw += 1
                if incl:
                    continue
                for entry in pwb:
                    if entry.pblock & nsub_mask == base_pb:
                        return True
                for ptg, pfl, _, _ in pl1s:
                    i2 = 0
                    while i2 < n_sub:
                        bn1 = base_pb + i2
                        psb = (bn1 & smask) * assoc
                        ptg1 = bn1 >> sbits
                        pw = 0
                        while pw < assoc:
                            pgi = psb + pw
                            if (pfl[pgi] & 3) and ptg[pgi] == ptg1:
                                return True
                            pw += 1
                        i2 += 1
            return False

        def plan_round(rb: int, tg2: int, txns: list) -> list | None:
            # Screen a bus round without side effects: *txns* is
            # ``[(pblock, op)]``, every pblock in level-2 block
            # (rb, tg2).  Each peer is probed as ``_snoop_shielded`` or
            # ``_snoop_unshielded`` would probe it.  Returns
            # ``[(pblock, op, snoops)]`` for :func:`bus_round`, one
            # snoop ``(peer, subentry index or -1, level-1 hits)`` per
            # peer that reacts, or None (the caller bails) for a peer's
            # buffer bit or buffered write-back, for what the scalar
            # path rejects (two suppliers, an invalidation of a dirty
            # copy, a missing v-pointer), and for a peer holding the
            # block in two ways: an invalidation that empties the first
            # would expose the second to the round's later lookups.
            ways = []
            for _, prtg, prfl, _, _, _, _, _, _, _ in peers:
                pw1 = -1
                pw = 0
                while pw < assoc2:
                    pgi = rb + pw
                    if (prfl[pgi] & 1) and prtg[pgi] == tg2:
                        if pw1 >= 0:
                            return None
                        pw1 = pgi
                    pw += 1
                ways.append(pw1)
            plan = []
            for pb, op in txns:
                snoops = []
                suppliers = 0
                for peer, pw1 in zip(peers, ways):
                    _, _, _, psfl, _, pvpc, _, _, pl1s, pwb = peer
                    psg = pw1 * n_sub + (pb & nsm1)
                    if pw1 < 0 or not (psfl[psg] & _S_VALID):
                        psg = -1
                    if incl:
                        if psg < 0:
                            continue  # shielded: no copy, no reaction
                        pf = psfl[psg]
                        if pf & _S_BUF:
                            return None
                        if pf & (_S_VDIRTY | _S_RDIRTY):
                            if op == _INV:
                                return None
                            suppliers += 1
                        if (pf & _S_VDIRTY and op != _INV) or (
                            pf & _S_INCL and op != _READ
                        ):
                            if not 0 <= pvpc[psg] < n_l1:
                                return None
                        snoops.append((peer, psg, ()))
                        continue
                    for entry in pwb:
                        if entry.pblock == pb:
                            return None
                    psb = (pb & smask) * assoc
                    ptg1 = pb >> sbits
                    hits = []
                    dirty = psg >= 0 and psfl[psg] & _S_RDIRTY
                    for half in pl1s:
                        ptg, pfl, _, _ = half
                        pw = 0
                        while pw < assoc:
                            pgi = psb + pw
                            if (pfl[pgi] & 3) and ptg[pgi] == ptg1:
                                hits.append((half, pgi))
                                if pfl[pgi] & 4:
                                    dirty = True
                                break
                            pw += 1
                    if dirty:
                        if op == _INV:
                            return None
                        suppliers += 1
                    snoops.append((peer, psg, hits))
                if suppliers > 1:
                    return None
                plan.append((pb, op, snoops))
            return plan

        def drop_sub(prfl: Any, psfl: Any, psvr: Any, pvpc: Any, psg: int) -> None:
            # ``sub.reset()`` then ``rblock.refresh_valid()``.
            psfl[psg] = 0
            pvpc[psg] = -1
            psvr[psg] = 0
            base = psg - psg % n_sub
            i2 = 0
            while i2 < n_sub:
                if psfl[base + i2] & _S_VALID:
                    prfl[base // n_sub] |= 1
                    return
                i2 += 1
            prfl[base // n_sub] &= 0xFE

        def bus_round(pb: int, op: int, snoops: list) -> tuple[bool, int]:
            # Commit one transaction screened by ``plan_round``, in
            # ``Bus._complete``'s order: the bus count, each peer's
            # snoop, then the data source.  Returns (shared, data
            # version; -1 for an invalidation).  Every level-1 flag it
            # changes taints that set for the peer's later references.
            bus_counts[_BUS_KEYS[op]] += 1
            shared = False
            sup = -1
            for peer, psg, hits in snoops:
                pcounts, _, prfl, psfl, psvr, pvpc, pvps, pvpw, pl1s, _ = peer
                if incl:
                    shared = True
                    pf = psfl[psg]
                    if op != _INV:
                        if pf & _S_VDIRTY:
                            # Flush the level-1 child through the v-pointer.
                            _, cfl, cvr, cts = pl1s[pvpc[psg]]
                            cgi = pvps[psg] * assoc + pvpw[psg]
                            pcounts["l1_coherence_flushes"] += 1
                            sup = cvr[cgi]
                            psvr[psg] = sup
                            cfl[cgi] &= 0xFB
                            cts.add(cgi - cgi % assoc)
                            pf &= ~(_S_VDIRTY | _S_RDIRTY)
                        elif pf & _S_RDIRTY:
                            sup = psvr[psg]
                            pf &= ~_S_RDIRTY
                        pf |= _S_SHARED
                        psfl[psg] = pf
                    if op != _READ:
                        if pf & _S_INCL:
                            _, cfl, _, cts = pl1s[pvpc[psg]]
                            cgi = pvps[psg] * assoc + pvpw[psg]
                            cfl[cgi] = 0
                            cts.add(cgi - cgi % assoc)
                            pcounts["l1_coherence_invalidations"] += 1
                        drop_sub(prfl, psfl, psvr, pvpc, psg)
                    continue
                pcounts["l1_coherence_probes"] += 1
                if hits or psg >= 0:
                    shared = True
                if op != _INV:
                    psup = -1
                    for (_, hfl, hvr, hts), pgi in hits:
                        if hfl[pgi] & 4:
                            psup = hvr[pgi]
                            hfl[pgi] &= 0xFB
                            hts.add(pgi - pgi % assoc)
                            break
                    if psg >= 0:
                        pf = psfl[psg]
                        if psup < 0 and pf & _S_RDIRTY:
                            psup = psvr[psg]
                        if psup >= 0:
                            psvr[psg] = psup
                        psfl[psg] = (pf & ~_S_RDIRTY) | _S_SHARED
                    if psup >= 0:
                        sup = psup
                if op != _READ:
                    for (_, hfl, _, hts), pgi in hits:
                        hfl[pgi] = 0
                        hts.add(pgi - pgi % assoc)
                    if psg >= 0:
                        drop_sub(prfl, psfl, psvr, pvpc, psg)
            if op == _INV:
                return shared, -1
            if sup >= 0:
                # A dirty peer supplied: memory takes the data too.
                mem_counts["writes"] += 1
                mv[pb] = sup
                bus_counts["cache_to_cache"] += 1
                return shared, sup
            mem_counts["reads"] += 1
            return shared, mvget(pb, 0)

        def fmiss(j: int, k: int) -> bool:
            nonlocal why
            pid = pid_l[j]
            vad = vad_l[j]
            lv = 1 if (split and k) else 0
            fl = gfl[lv]
            tgs = gtg[lv]
            # -- screen (no side effects until every bail is resolved) --
            if rr:
                # Peek the translation: resident slot map first, then
                # the (pure) layout walk.  The commit phase re-runs the
                # real translate for its counter/LRU/refill effects.
                if pshift >= 0:
                    vpage = vad >> pshift
                    off = vad & pmask
                else:
                    vpage = vad // psize
                    off = vad - vpage * psize
                sl = tmg((pid << _PID_SHIFT) | vpage, -1)
                if sl >= 0:
                    fr = tfr_py[sl]
                else:
                    fr = lay_tr(pid, vpage * psize) // psize
                if pshift >= 0:
                    paddr = (fr << pshift) | off
                else:
                    paddr = fr * psize + off
                key = paddr
            else:
                paddr = -1
                key = (vad | (pid << _PID_SHIFT)) if pid_tags else vad
            bn = key >> bbits
            sb = (bn & smask) * assoc
            tg = bn >> sbits
            g = -1
            f = 0
            w = 0
            while w < assoc:
                gi = sb + w
                f = fl[gi]
                if (f & 1) and tgs[gi] == tg:
                    g = gi
                    break
                w += 1
            if g >= 0:
                # Level-1 hit: only the clean-write shape is native
                # (reads that land here were bailed for other reasons).
                if k != 2 or (f & 4):
                    why = "l1-hit"
                    return False
                if incl:
                    rs = grs[lv][g]
                    if rs < 0:
                        why = "orphan"
                        return False
                    rg = rs * assoc2 + grw[lv][g]
                    sg = rg * n_sub + grb[lv][g]
                else:
                    # No inclusion: the r-pointer may name a reused
                    # slot, so the parent is found by tag, as
                    # ``_sub_for_l1_block`` does.
                    bn2 = key >> bbits2
                    rb = (bn2 & smask2) * assoc2
                    tg2 = bn2 >> sbits2
                    sg = -1
                    w2 = 0
                    while w2 < assoc2:
                        gi2 = rb + w2
                        if (rfl[gi2] & 1) and rtg[gi2] == tg2:
                            sg = gi2 * n_sub + ((key >> sub_bits) & nsm1)
                            break
                        w2 += 1
                    # An orphan (no valid parent) issues an INVALIDATE.
                    if sg < 0 or not (sfl[sg] & _S_VALID):
                        why = "orphan"
                        return False
                plan = None
                if sfl[sg] & _S_SHARED:
                    # The write invalidates every peer copy first.
                    if incl:
                        rb = rs * assoc2
                        tg2 = rtg[rg]
                        pb = (((tg2 << sbits2) | rs) << bbits2) >> sub_bits
                        pb += grb[lv][g]
                    else:
                        pb = key >> sub_bits
                    plan = plan_round(rb, tg2, [(pb, _INV)])
                    if plan is None:
                        why = "shared-write"
                        return False
                # -- commit: clean write hit --
                refs_l[c] += 1
                cd = cnt_l[c] - 1
                if cd:
                    cnt_l[c] = cd
                else:
                    cnt_l[c] = dp
                    if wdeq:
                        drain_n()
                if rr:
                    if sl >= 0:
                        tsb[sl] = ticks[c]
                        ticks[c] += 1
                        tacc[c] += 1
                    else:
                        t._tick = ticks[c]
                        ttr(pid, vad)
                        ticks[c] = t._tick
                acc[c + c + c + 2] += 1
                if multi:
                    gacc[lv](sb // assoc, g - sb)
                v = vn[0]
                vn[0] = v + 1
                if plan is not None:
                    bus_round(*plan[0])
                    sfl[sg] &= ~_S_SHARED
                fl[g] = f | 4
                if incl:
                    sfl[sg] |= _S_VDIRTY
                gvr[lv][g] = v
                gts[lv].add(sb)
                meter[1] += 1
                return True
            # Level-1 miss.
            if paddr < 0:
                if pshift >= 0:
                    vpage = vad >> pshift
                    off = vad & pmask
                else:
                    vpage = vad // psize
                    off = vad - vpage * psize
                sl = tmg((pid << _PID_SHIFT) | vpage, -1)
                if sl >= 0:
                    fr = tfr_py[sl]
                else:
                    fr = lay_tr(pid, vpage * psize) // psize
                if pshift >= 0:
                    paddr = (fr << pshift) | off
                else:
                    paddr = fr * psize + off
            bn2 = paddr >> bbits2
            st2 = bn2 & smask2
            tg2 = bn2 >> sbits2
            rb = st2 * assoc2
            si = (paddr >> sub_bits) & (n_sub - 1)
            rg = -1
            w2 = 0
            while w2 < assoc2:
                gi2 = rb + w2
                if (rfl[gi2] & 1) and rtg[gi2] == tg2:
                    rg = gi2
                    break
                w2 += 1
            l2_hit = False
            shared_fill = False
            if rg >= 0:
                sf = sfl[rg * n_sub + si]
                if sf & _S_VALID:
                    if sf & (_S_INCL | _S_BUF):
                        why = "synonym" if sf & _S_INCL else "wb-cancel"
                        return False
                    shared_fill = k == 2 and (sf & _S_SHARED) != 0
                    l2_hit = True
            pb = paddr >> sub_bits
            if not incl:
                # No buffer bit without inclusion: the fill snoops its
                # own write buffer, and a buffered write-back of this
                # block is cancelled and restored (``_place_in_l1``).
                for entry in wdeq:
                    if entry.pblock == pb:
                        why = "wb-cancel"
                        return False
            base_pb = pb & nsub_mask
            plan = None
            inval = None
            if shared_fill:
                # A write filling a SHARED sub-block invalidates every
                # peer copy after the fill.
                inval = plan_round(rb, tg2, [(pb, _INV)])
                if inval is None:
                    why = "shared-fill"
                    return False
            elif not l2_hit and held_by_peer(rb, tg2, base_pb):
                # The fill meets peer copies: one bus round per
                # sub-block, the written one read-modified-write.
                plan = plan_round(
                    rb,
                    tg2,
                    [
                        (base_pb + i2, _RMW if k == 2 and i2 == si else _READ)
                        for i2 in range(n_sub)
                    ],
                )
                if plan is None:
                    why = "peer-copy"
                    return False
            # -- commit --
            refs_l[c] += 1
            cd = cnt_l[c] - 1
            if cd:
                cnt_l[c] = cd
            else:
                cnt_l[c] = dp
                if wdeq:
                    drain_n()
            if sl >= 0:
                tsb[sl] = ticks[c]
                ticks[c] += 1
                tacc[c] += 1
            else:
                t._tick = ticks[c]
                ttr(pid, vad)
                ticks[c] = t._tick
            counts_c[_MISS_KEYS[k]] += 1
            if l2_hit:
                counts_c["l2_hits"] += 1
                if multi2:
                    r_onacc(st2, rg - rb)
                sg = rg * n_sub + si
            else:
                counts_c["l2_misses"] += 1
                rvg = -1
                w2 = 0
                while w2 < assoc2:
                    gi2 = rb + w2
                    if not (rfl[gi2] & 3):
                        rvg = gi2
                        break
                    w2 += 1
                if rvg < 0:
                    if not multi2:
                        rvg = rb
                    elif not incl:
                        # No unencumbered preference without inclusion.
                        rvg = rb + r_choose(st2, rng2)
                    else:
                        cands = []
                        w2 = 0
                        while w2 < assoc2:
                            sbase2 = (rb + w2) * n_sub
                            i2 = 0
                            while i2 < n_sub:
                                if sfl[sbase2 + i2] & 6:  # _S_INCL | _S_BUF
                                    break
                                i2 += 1
                            else:
                                cands.append(w2)
                            w2 += 1
                        rvg = rb + r_choose(st2, cands if cands else rng2)
                rf = rfl[rvg]
                sbase2 = rvg * n_sub
                if rf & 3:
                    counts_c["l2_evictions"] += 1
                    vbase = (((rtg[rvg] << sbits2) | st2) << bbits2) >> sub_bits
                    i2 = 0
                    while i2 < n_sub:
                        sg2 = sbase2 + i2
                        sf2 = sfl[sg2]
                        if sf2 & _S_VALID:
                            pb2 = vbase + i2
                            if sf2 & _S_BUF:
                                entv = -1
                                di = 0
                                nd = len(wdeq)
                                while di < nd:
                                    entry = wdeq[di]
                                    if entry.pblock == pb2:
                                        del wdeq[di]
                                        wb_counts["removals"] += 1
                                        entv = entry.version
                                        break
                                    di += 1
                                if entv < 0:
                                    raise ProtocolError(
                                        "buffer bit set but no write-buffer"
                                        " entry",
                                        access_index=refs_l[c],
                                        pblock=pb2,
                                    )
                                bus_counts["write_back"] += 1
                                mem_counts["writes"] += 1
                                mv[pb2] = entv
                            if sf2 & _S_INCL:
                                ci = vpc[sg2]
                                if ci < 0:
                                    raise InclusionError(
                                        "inclusion bit set without a"
                                        " v-pointer",
                                        access_index=refs_l[c],
                                        pblock=pb2,
                                    )
                                counts_c["l1_inclusion_invalidations"] += 1
                                cfl = gfl[ci]
                                cgi = vps[sg2] * assoc + vpw[sg2]
                                cf = cfl[cgi]
                                if cf & 4:
                                    bus_counts["write_back"] += 1
                                    mem_counts["writes"] += 1
                                    mv[pb2] = gvr[ci][cgi]
                                elif (sf2 & _S_RDIRTY) and not (sf2 & _S_BUF):
                                    bus_counts["write_back"] += 1
                                    mem_counts["writes"] += 1
                                    mv[pb2] = svr[sg2]
                                cfl[cgi] = cf & 0xF8
                                gts[ci].add(cgi - cgi % assoc)
                            elif (sf2 & _S_RDIRTY) and not (sf2 & _S_BUF):
                                bus_counts["write_back"] += 1
                                mem_counts["writes"] += 1
                                mv[pb2] = svr[sg2]
                        i2 += 1
                    rfl[rvg] = 0
                if plan is None:
                    # Fill every subentry from memory (no peer copies).
                    # Without inclusion each transaction probes every
                    # peer.
                    if not incl:
                        for pcounts in peer_counts:
                            pcounts["l1_coherence_probes"] += n_sub
                    i2 = 0
                    while i2 < n_sub:
                        pb2 = base_pb + i2
                        if k == 2 and i2 == si:
                            bus_counts["read_modified_write"] += 1
                        else:
                            bus_counts["read_miss"] += 1
                        mem_counts["reads"] += 1
                        sg2 = sbase2 + i2
                        sfl[sg2] = 1
                        vpc[sg2] = -1
                        svr[sg2] = mvget(pb2, 0)
                        i2 += 1
                else:
                    # A sub-block arrives SHARED when a peer kept a
                    # copy of a plain read (a read-modified-write
                    # leaves none).
                    for txn in plan:
                        shared, ver = bus_round(*txn)
                        sg2 = sbase2 + (txn[0] & nsm1)
                        if shared and txn[1] == _READ:
                            sfl[sg2] = _S_VALID | _S_SHARED
                        else:
                            sfl[sg2] = _S_VALID
                        vpc[sg2] = -1
                        svr[sg2] = ver
                rtg[rvg] = tg2
                rfl[rvg] = 1
                if multi2:
                    r_onins(st2, rvg - rb)
                rg = rvg
                sg = sbase2 + si
            # Place in level 1 (plain supply; synonym and buffer paths
            # were screened out, and a fresh fill arrives with both
            # inclusion and buffer bits clear).
            vg = -1
            w = 0
            while w < assoc:
                gi = sb + w
                if not (fl[gi] & 3):
                    vg = gi
                    break
                w += 1
            if vg < 0:
                if not multi:
                    vg = sb
                else:
                    vg = sb + gch[lv](sb // assoc, rng1)
            f = fl[vg]
            if f & 3:
                counts_c["l1_evictions"] += 1
                if incl:
                    grs_l = grs[lv]
                    grw_l = grw[lv]
                    grb_l = grb[lv]
                    vrs = grs_l[vg]
                    vrg = vrs * assoc2 + grw_l[vg]
                    vsg = vrg * n_sub + grb_l[vg]
                    if f & 4:
                        push_wb(
                            (
                                (((rtg[vrg] << sbits2) | vrs) << bbits2)
                                >> sub_bits
                            )
                            + grb_l[vg],
                            gvr[lv][vg],
                            f,
                        )
                        x = sfl[vsg]
                        sfl[vsg] = (x | _S_BUF) & ~_S_VDIRTY
                    sfl[vsg] &= ~_S_INCL
                    vpc[vsg] = -1
                elif f & 4:
                    # No parent to mark: the pblock is rebuilt from the
                    # victim's physical tag and set.
                    push_wb((tgs[vg] << sbits) | (sb // assoc), gvr[lv][vg], f)
                fl[vg] = 0
            tgs[vg] = tg
            gvr[lv][vg] = svr[sg]
            grs[lv][vg] = st2
            grw[lv][vg] = rg - rb
            grb[lv][vg] = si
            fl[vg] = 1
            if incl:
                sfl[sg] |= _S_INCL
                vpc[sg] = lv
                vps[sg] = sb // assoc
                vpw[sg] = vg - sb
            if multi:
                gins[lv](sb // assoc, vg - sb)
            if k == 2:
                v = vn[0]
                vn[0] = v + 1
                if inval is not None:
                    bus_round(*inval[0])
                    sfl[sg] &= ~_S_SHARED
                fl[vg] = 5
                if incl:
                    sfl[sg] |= _S_VDIRTY
                gvr[lv][vg] = v
            gts[lv].add(sb)
            meter[1] += 1
            return True

        return fmiss, drain_n

    if native:
        fms = []
        for c, h in enumerate(hiers):
            fm, dn = _mk_fmiss(c, h)
            fms.append(fm)
            drains[c] = dn
    else:
        fms = None

    def _flush_counters() -> None:
        # Deferred hit counters; only nonzero deltas are applied so
        # the walker mints exactly the scalar path's counter keys.
        for c in range(n_cpus):
            counts = counts_l[c]
            base = c * 3
            for k in range(3):
                delta = acc[base + k]
                if delta:
                    counts[_HIT_KEYS[k]] += delta
                    acc[base + k] = 0
            delta = tacc[c]
            if delta:
                tlb_counts[c]["hits"] += delta
                tacc[c] = 0

    def _classify(s: int, e: int):
        """Vectorized verdicts for trace slice ``s..e`` of the batch."""
        ka = kind_np[s:e]
        ca = cpu_np[s:e]
        va = vad_np[s:e]
        pa = pid_np[s:e]
        m = e - s
        code = np.where(ka >= 3, ka, 0)
        sb = np.zeros(m, dtype=np.int64)
        tg = np.zeros(m, dtype=np.int64)
        wy = np.zeros(m, dtype=np.int64)
        if rr:
            tsl = np.full(m, -1, dtype=np.int64)
            vp = np.zeros(m, dtype=np.int64)
            off = np.zeros(m, dtype=np.int64)
        mem = ka < 3
        for c in range(n_cpus):
            idx = np.nonzero(mem & (ca == c))[0]
            if idx.size == 0:
                continue
            v = va[idx]
            p = pa[idx]
            k = ka[idx]
            if rr:
                if pshift >= 0:
                    vpage = v >> pshift
                    o = v & pmask
                else:
                    vpage = v // psize
                    o = v - vpage * psize
                tbase = (vpage % tlb_sets) * tlb_assoc
                thit = np.zeros(idx.size, dtype=bool)
                tfr = np.zeros(idx.size, dtype=np.int64)
                tsl_c = np.full(idx.size, -1, dtype=np.int64)
                tp = tpid_a[c]
                tv = tvpage_a[c]
                tf = tframe_a[c]
                tva = tvalid_a[c]
                for w in range(tlb_assoc):
                    sl = tbase + w
                    hw = (tva[sl] != 0) & (tp[sl] == p) & (tv[sl] == vpage)
                    new = hw & ~thit
                    tfr = np.where(new, tf[sl], tfr)
                    tsl_c = np.where(new, sl, tsl_c)
                    thit |= hw
                if pshift >= 0:
                    key = (tfr << pshift) | o
                else:
                    key = tfr * psize + o
                vp[idx] = vpage
                off[idx] = o
                tsl[idx] = tsl_c
                bn = key >> bbits
                t = bn >> sbits
            elif pid_tags:
                # The scalar key is ``vaddr | (pid << 48)``, which wraps
                # in int64 once pid >= 2**15.  Slice it without forming
                # it: the pid sits above the index bits, and shifts
                # distribute over the or.  A pid whose tag does not fit
                # in int64 is left to the scalar path.
                thit = p < pid_tag_limit
                bn = v >> bbits
                t = np.where(
                    thit, (bn >> sbits) | (np.where(thit, p, 0) << pid_tag_shift), -1
                )
            else:
                thit = None
                bn = v >> bbits
                t = bn >> sbits
            st = bn & smask
            sbase = st * assoc
            sb[idx] = sbase
            tg[idx] = t
            for lv in range(n_l1):
                if split:
                    ls = np.nonzero((k != 0) == bool(lv))[0]
                    if ls.size == 0:
                        continue
                else:
                    ls = np.arange(idx.size)
                sb_g = sbase[ls]
                tg_g = t[ls]
                fa = flags_np[c * n_l1 + lv]
                ta = tags_np[c * n_l1 + lv]
                hit = np.zeros(ls.size, dtype=bool)
                dty = np.zeros(ls.size, dtype=bool)
                wv = np.zeros(ls.size, dtype=np.int64)
                for w in range(assoc):
                    gi = sb_g + w
                    f = fa[gi]
                    hw = ((f & 1) != 0) & (ta[gi] == tg_g)
                    new = hw & ~hit
                    if w:
                        wv = np.where(new, w, wv)
                    dty = np.where(new, (f & 4) != 0, dty)
                    hit |= hw
                isw = k[ls] == 2
                if wt:
                    ok = hit & ~isw
                else:
                    ok = hit & (~isw | dty)
                if thit is not None:
                    ok &= thit[ls]
                tgt = idx[ls]
                code[tgt] = np.where(ok, np.where(isw, 2, 1), 0)
                wy[tgt] = wv
        if rr:
            return (
                code.tolist(),
                sb.tolist(),
                tg.tolist(),
                wy.tolist(),
                tsl.tolist(),
                vp.tolist(),
                off.tolist(),
            )
        empty: list[int] = []
        return (
            code.tolist(),
            sb.tolist(),
            tg.tolist(),
            wy.tolist(),
            empty,
            empty,
            empty,
        )

    def _batch_source():
        # Chunked streams (repro.trace.stream) already carry each
        # batch in the walker's own vector layout — same int64
        # dtype, same 0-4 kind codes — so their arrays feed the
        # classifier directly; record iterables are packed into the
        # same chunks first.
        chunks = getattr(records, "chunks", None)
        source = chunks() if chunks is not None else chunk_iter(records, _BATCH)
        for chunk in source:
            yield (
                chunk.cpu.tolist(),
                chunk.pid.tolist(),
                chunk.vaddr.tolist(),
                chunk.kind.tolist(),
                chunk.cpu,
                chunk.pid,
                chunk.kind,
                chunk.vaddr,
            )

    # The names below are the cells _classify / esc / cs close over:
    # the unpacking must happen in run_soa's own body so each batch
    # rebinds those cells.
    for cpu_l, pid_l, vad_l, kc_l, cpu_np, pid_np, kind_np, vad_np in (
        _batch_source()
    ):
        count = len(cpu_l)
        pos = 0
        while pos < count:
            end = pos + _CHUNK
            if end > count:
                end = count
            code_l, sb_l, tg_l, w_l, ts_l, vp_l, off_l = _classify(pos, end)
            for tset in tsets:
                tset.clear()
            for log in evls:
                del log[:]
            _walk_chunk(
                pos,
                end,
                code_l,
                sb_l,
                tg_l,
                w_l,
                ts_l,
                vp_l,
                off_l,
                cpu_l,
                pid_l,
                kc_l,
                refs_l,
                cnt_l,
                acc,
                tacc,
                vn,
                ticks,
                tags_a,
                flags_a,
                vers_a,
                ts_a,
                pols,
                tsets,
                wbs,
                drains,
                fms,
                esc,
                cs,
                tmget,
                tfrs,
                evls,
                dp,
                assoc,
                multi,
                wt,
                rr,
                split,
                pshift,
                psize,
                bbits,
                sbits,
                smask,
            )
            _flush_counters()
            pos = end

    for c, h in enumerate(hiers):
        h._refs = refs_l[c]
        h._drain_countdown = cnt_l[c]
        tlbs[c]._tick = ticks[c]
    vc.next_value = vn[0]
    _flush_counters()
    for log in dls:
        del log[:]
    for log in evls:
        del log[:]
    return sum(refs_l) - refs0, {
        "escapes": meter[0],
        "native": meter[1],
        "escapes_by": dict(sorted(escapes_by.items())),
    }
