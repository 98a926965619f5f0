"""Per-entry reference for DSDV's table rules.

This is the loop ``repro.routing.dsdv`` ran before its table became
column arrays, kept here as the independent statement of the protocol
rules: one Python step per advert entry, a dict of mutable rows in
insertion order. ``test_dsdv_oracle.py`` drives it and the production
agent with the same inputs and compares them after every step.
"""

import math

INFINITY = math.inf


class ReferenceDsdv:
    def __init__(self, addr):
        self.addr = addr
        self.seq = 0
        #: dst -> [next_hop, metric, seq, changed]
        self.table = {}

    def receive(self, entries, prev_hop):
        """Merge one advert; returns whether a triggered update is due."""
        changed_any = False
        for dst, metric, seq in entries:
            if dst == self.addr:
                # An odd (broken) sequence about us: answer with a fresh
                # even one so the network relearns the route quickly.
                if seq % 2 == 1 and seq > self.seq:
                    self.seq = seq + 1
                    changed_any = True
                continue
            new_metric = metric + 1 if metric < INFINITY else INFINITY
            cur = self.table.get(dst)
            if cur is None:
                if new_metric < INFINITY:
                    self.table[dst] = [prev_hop, new_metric, seq, True]
                    changed_any = True
                continue
            if seq > cur[2] or (seq == cur[2] and new_metric < cur[1]):
                cur[:] = [prev_hop, new_metric, seq, True]
                changed_any = True
        return changed_any

    def link_failed(self, next_hop):
        """Break every valid route through *next_hop*; returns whether any broke."""
        broke = False
        for row in self.table.values():
            if row[0] == next_hop and row[1] < INFINITY:
                row[1] = INFINITY
                row[2] += 1
                row[3] = True
                broke = True
        return broke

    def dump(self, full, now):
        """The update's (dst, metric, seq) triples, or None when suppressed."""
        self.seq += 2
        entries = [(self.addr, 0.0, self.seq)]
        for dst, row in self.table.items():
            if full or row[3]:
                entries.append((dst, row[1], row[2]))
            row[3] = False
        if not full and len(entries) == 1 and now > 0:
            return None
        return entries
