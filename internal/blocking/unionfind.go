package blocking

import "sort"

// UnionFind is an incremental disjoint-set forest over string IDs.
// The canonical root of every set is its lexicographically smallest
// member, so set identities are stable under any union order: merging
// the same pairs in any sequence yields the same roots and the same
// groups. That determinism is what lets the online resolution store
// fold concurrently arriving match decisions into entity groups
// without ordering them first.
//
// A UnionFind is not safe for concurrent use; callers guard it with a
// lock (internal/resolve does).
type UnionFind struct {
	parent  map[string]string
	members map[string][]string // root -> member IDs, kept sorted
}

// NewUnionFind returns an empty disjoint-set forest.
func NewUnionFind() *UnionFind {
	return &UnionFind{
		parent:  map[string]string{},
		members: map[string][]string{},
	}
}

// Grow sizes an empty forest's ID map for n IDs, so a bulk fold does
// not rehash it as it grows. A forest that holds IDs is left as it is.
func (u *UnionFind) Grow(n int) {
	if len(u.parent) == 0 {
		u.parent = make(map[string]string, n)
	}
}

// Add ensures the ID is present, as a singleton set if it is new, and
// returns its root.
func (u *UnionFind) Add(id string) string {
	if _, ok := u.parent[id]; !ok {
		u.parent[id] = id
		u.members[id] = []string{id}
	}
	return u.find(id)
}

// Find returns the canonical root of the ID's set and whether the ID
// is known.
func (u *UnionFind) Find(id string) (string, bool) {
	if _, ok := u.parent[id]; !ok {
		return "", false
	}
	return u.find(id), true
}

// find resolves the root with iterative path compression.
func (u *UnionFind) find(id string) string {
	root := id
	for u.parent[root] != root {
		root = u.parent[root]
	}
	for u.parent[id] != root {
		id, u.parent[id] = u.parent[id], root
	}
	return root
}

// Union merges the sets of a and b, adding either ID if it is new, and
// returns the root of the merged set — the smallest member ID.
func (u *UnionFind) Union(a, b string) string {
	ra, rb := u.Add(a), u.Add(b)
	if ra == rb {
		return ra
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	// Merge the two sorted member lists; keeping lists sorted at union
	// time makes every Members/Groups read copy-only, and reads vastly
	// outnumber unions on the serving path.
	u.members[ra] = mergeSorted(u.members[ra], u.members[rb])
	delete(u.members, rb)
	return ra
}

// mergeSorted merges sorted b into sorted a, reusing a's capacity
// (amortized growth, like plain append): non-overlapping ranges are a
// straight append, the general case merges backwards in place.
func mergeSorted(a, b []string) []string {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append(a, b...)
	}
	if a[len(a)-1] <= b[0] {
		return append(a, b...)
	}
	i := len(a) - 1
	a = append(a, b...)
	for j, k := len(b)-1, len(a)-1; j >= 0; k-- {
		if i >= 0 && a[i] > b[j] {
			a[k] = a[i]
			i--
		} else {
			a[k] = b[j]
			j--
		}
	}
	return a
}

// Members returns the sorted member IDs of the set containing the ID,
// or nil if the ID is unknown.
func (u *UnionFind) Members(id string) []string {
	root, ok := u.Find(id)
	if !ok {
		return nil
	}
	out := make([]string, len(u.members[root]))
	copy(out, u.members[root])
	return out
}

// Len returns the number of known IDs.
func (u *UnionFind) Len() int { return len(u.parent) }

// Sets returns the number of disjoint sets.
func (u *UnionFind) Sets() int { return len(u.members) }

// Groups returns all sets as sorted member slices, ordered by their
// root (smallest member) for determinism.
func (u *UnionFind) Groups() [][]string {
	roots := make([]string, 0, len(u.members))
	for r := range u.members {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	out := make([][]string, 0, len(roots))
	for _, r := range roots {
		g := make([]string, len(u.members[r]))
		copy(g, u.members[r]) // member lists are maintained sorted
		out = append(out, g)
	}
	return out
}
