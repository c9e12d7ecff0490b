package blocking

import (
	"slices"
	"sort"
	"strings"
)

// UnionFind is an incremental disjoint-set forest over string IDs.
// The canonical root of every set is its lexicographically smallest
// member, so set identities are stable under any union order: merging
// the same pairs in any sequence yields the same roots and the same
// groups. That determinism is what lets the online resolution store
// fold concurrently arriving match decisions into entity groups
// without ordering them first. Each ID is interned once, as a copy
// keyed to an int32 slot, so an ID cut from a larger string (a request
// body, a decoded record) does not keep that string alive.
//
// A UnionFind is not safe for concurrent use; callers guard it with a
// lock (internal/resolve does).
type UnionFind struct {
	slots   map[string]int32
	ids     []string          // slot -> ID, append-only
	parent  []int32           // slot -> parent slot
	members map[int32][]int32 // root -> member slots sorted by ID; none for a singleton
	sets    int
}

// NewUnionFind returns an empty disjoint-set forest.
func NewUnionFind() *UnionFind {
	return &UnionFind{slots: map[string]int32{}, members: map[int32][]int32{}}
}

// Grow sizes an empty forest for n IDs, so a bulk fold does not rehash
// or copy them as it grows. A forest that holds IDs is left as it is.
func (u *UnionFind) Grow(n int) {
	if len(u.ids) == 0 {
		u.slots, u.ids, u.parent = make(map[string]int32, n), make([]string, 0, n), make([]int32, 0, n)
	}
}

// slot returns the ID's slot, adding a copy of it if it is new.
func (u *UnionFind) slot(id string) int32 {
	if i, ok := u.slots[id]; ok {
		return i
	}
	return u.insert(strings.Clone(id))
}

// insert adds an ID the forest owns as a singleton.
func (u *UnionFind) insert(id string) int32 {
	i := int32(len(u.ids))
	u.slots[id], u.ids, u.parent, u.sets = i, append(u.ids, id), append(u.parent, i), u.sets+1
	return i
}

// Add ensures the ID is present, as a singleton set if it is new, and
// returns its root.
func (u *UnionFind) Add(id string) string { return u.ids[u.root(u.slot(id))] }

// Intern is Add returning the forest's own copy of the ID, not its root.
func (u *UnionFind) Intern(id string) string { return u.ids[u.slot(id)] }

// InternBytes is Intern for an ID in a buffer; a known ID costs no allocation.
func (u *UnionFind) InternBytes(id []byte) string {
	if i, ok := u.slots[string(id)]; ok {
		return u.ids[i]
	}
	return u.ids[u.insert(string(id))]
}

// Find returns the canonical root of the ID's set and whether the ID
// is known.
func (u *UnionFind) Find(id string) (string, bool) {
	if i, ok := u.slots[id]; ok {
		return u.ids[u.root(i)], true
	}
	return "", false
}

// root resolves a slot's root with iterative path compression.
func (u *UnionFind) root(i int32) int32 {
	r := i
	for u.parent[r] != r {
		r = u.parent[r]
	}
	for u.parent[i] != r {
		i, u.parent[i] = u.parent[i], r
	}
	return r
}

// Union merges the sets of a and b, adding either ID if it is new, and
// returns the root of the merged set — the smallest member ID.
func (u *UnionFind) Union(a, b string) string {
	ra, rb := u.root(u.slot(a)), u.root(u.slot(b))
	if ra == rb {
		return u.ids[ra]
	}
	if u.ids[rb] < u.ids[ra] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.sets--
	// Sorted at union time, member lists make every Members/Groups read
	// copy-only; reads vastly outnumber unions on the serving path.
	m := append(u.list(ra), u.list(rb)...)
	slices.SortFunc(m, func(x, y int32) int { return strings.Compare(u.ids[x], u.ids[y]) })
	u.members[ra] = m
	delete(u.members, rb)
	return u.ids[ra]
}

// list returns the set's member slots; a singleton's has room for one more.
func (u *UnionFind) list(r int32) []int32 {
	if m, ok := u.members[r]; ok {
		return m
	}
	return append(make([]int32, 0, 2), r)
}

// Members returns the sorted member IDs of the set containing the ID,
// or nil if the ID is unknown.
func (u *UnionFind) Members(id string) []string {
	if i, ok := u.slots[id]; ok {
		return u.names(u.root(i))
	}
	return nil
}

// names returns the member IDs of the set rooted at r.
func (u *UnionFind) names(r int32) []string {
	m := u.list(r)
	out := make([]string, len(m))
	for k, i := range m {
		out[k] = u.ids[i]
	}
	return out
}

// Len returns the number of known IDs.
func (u *UnionFind) Len() int { return len(u.ids) }

// IDs returns the known IDs in the order they were added. IDs are only
// appended, so the slice stays valid after the caller's lock is released.
func (u *UnionFind) IDs() []string { return u.ids[:len(u.ids):len(u.ids)] }

// Sets returns the number of disjoint sets.
func (u *UnionFind) Sets() int { return u.sets }

// Groups returns all sets as sorted member slices, ordered by their
// root (smallest member) for determinism.
func (u *UnionFind) Groups() [][]string {
	roots := make([]int32, 0, u.sets)
	for i, p := range u.parent {
		if p == int32(i) {
			roots = append(roots, p)
		}
	}
	sort.Slice(roots, func(x, y int) bool { return u.ids[roots[x]] < u.ids[roots[y]] })
	out := make([][]string, len(roots))
	for k, r := range roots {
		out[k] = u.names(r)
	}
	return out
}
