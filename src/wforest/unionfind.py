"""Union-find over arbitrary hashable items, with union by size and path halving.

Each set also carries the sum of its members' weights (each item weighs
what it was added with, 0 by default) at its root, in `total`.
"""


class UnionFind:
    def __init__(self, items=()):
        self.parent = {}
        self.size = {}
        self.total = {}
        for x in items:
            self.add(x)

    def add(self, x, weight=0):
        if x not in self.parent:
            self.parent[x] = x
            self.size[x] = 1
            self.total[x] = weight

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        """Merge the sets of a and b; return False if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.total[ra] += self.total[rb]
        return True
