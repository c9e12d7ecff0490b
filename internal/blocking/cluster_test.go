package blocking

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestClusterEmptyInput: folding no match decisions yields no groups.
func TestClusterEmptyInput(t *testing.T) {
	u := NewUnionFind()
	if g := u.Groups(); len(g) != 0 || u.Len() != 0 || u.Sets() != 0 {
		t.Errorf("empty forest: Groups %v, Len/Sets %d/%d", g, u.Len(), u.Sets())
	}
}

func TestUnionFindBasics(t *testing.T) {
	u := NewUnionFind()
	if _, ok := u.Find("a"); ok {
		t.Error("empty forest knows a")
	}
	if u.Members("a") != nil {
		t.Error("Members of unknown ID should be nil")
	}
	if root := u.Add("b"); root != "b" {
		t.Errorf("Add(b) root = %q", root)
	}
	if root := u.Add("b"); root != "b" {
		t.Errorf("re-Add(b) root = %q", root)
	}
	if u.Len() != 1 || u.Sets() != 1 {
		t.Errorf("Len/Sets = %d/%d", u.Len(), u.Sets())
	}
	// Union adds unknown IDs and roots at the smallest member.
	if root := u.Union("c", "b"); root != "b" {
		t.Errorf("Union(c,b) root = %q, want b", root)
	}
	if root := u.Union("a", "c"); root != "a" {
		t.Errorf("Union(a,c) root = %q, want a", root)
	}
	if got, want := u.Members("b"), []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Members(b) = %v, want %v", got, want)
	}
	if u.Len() != 3 || u.Sets() != 1 {
		t.Errorf("Len/Sets = %d/%d, want 3/1", u.Len(), u.Sets())
	}
	// Self-union is a no-op.
	if root := u.Union("a", "a"); root != "a" {
		t.Errorf("Union(a,a) = %q", root)
	}
}

// TestUnionFindOrderIndependence: any union order over the same edge
// set yields identical roots and groups — the property the online
// store's concurrent folding relies on.
func TestUnionFindOrderIndependence(t *testing.T) {
	edges := [][2]string{{"d", "c"}, {"b", "a"}, {"c", "b"}, {"f", "e"}, {"g", "g"}}
	want := func() [][]string {
		u := NewUnionFind()
		for _, e := range edges {
			u.Union(e[0], e[1])
		}
		return u.Groups()
	}()
	// All permutations of 5 edges.
	var permute func(k int, order []int)
	perms := [][]int{}
	order := []int{0, 1, 2, 3, 4}
	permute = func(k int, order []int) {
		if k == len(order) {
			perms = append(perms, append([]int(nil), order...))
			return
		}
		for i := k; i < len(order); i++ {
			order[k], order[i] = order[i], order[k]
			permute(k+1, order)
			order[k], order[i] = order[i], order[k]
		}
	}
	permute(0, order)
	for _, p := range perms {
		u := NewUnionFind()
		for _, ei := range p {
			u.Union(edges[ei][0], edges[ei][1])
		}
		if got := u.Groups(); !reflect.DeepEqual(got, want) {
			t.Fatalf("order %v: groups %v, want %v", p, got, want)
		}
	}
	if want[0][0] != "a" {
		t.Fatalf("canonical first group should start at smallest ID: %v", want)
	}
}

func TestUnionFindIncrementalGrowth(t *testing.T) {
	u := NewUnionFind()
	for i := 0; i < 100; i++ {
		u.Add(fmt.Sprintf("n%03d", i))
	}
	// Chain every consecutive pair: one long transitive entity.
	for i := 1; i < 100; i++ {
		u.Union(fmt.Sprintf("n%03d", i-1), fmt.Sprintf("n%03d", i))
	}
	if u.Sets() != 1 {
		t.Fatalf("Sets = %d, want 1", u.Sets())
	}
	root, _ := u.Find("n099")
	if root != "n000" {
		t.Errorf("root = %q, want n000", root)
	}
	if got := u.Members("n050"); len(got) != 100 || got[0] != "n000" || got[99] != "n099" {
		t.Errorf("Members length %d, bounds %q..%q", len(got), got[0], got[len(got)-1])
	}
}

// oracleUnionFind is the map-based forest UnionFind used to be: string
// keys throughout, and a member list for every set, singletons
// included. FuzzUnionFind holds the slot-keyed forest to it.
type oracleUnionFind struct {
	parent  map[string]string
	members map[string][]string // root -> member IDs, kept sorted
	added   []string            // IDs in the order they were added
}

func newOracleUnionFind() *oracleUnionFind {
	return &oracleUnionFind{parent: map[string]string{}, members: map[string][]string{}}
}

func (u *oracleUnionFind) Add(id string) string {
	if _, ok := u.parent[id]; !ok {
		u.parent[id] = id
		u.members[id] = []string{id}
		u.added = append(u.added, id)
	}
	return u.find(id)
}

func (u *oracleUnionFind) Find(id string) (string, bool) {
	if _, ok := u.parent[id]; !ok {
		return "", false
	}
	return u.find(id), true
}

func (u *oracleUnionFind) find(id string) string {
	root := id
	for u.parent[root] != root {
		root = u.parent[root]
	}
	for u.parent[id] != root {
		id, u.parent[id] = u.parent[id], root
	}
	return root
}

func (u *oracleUnionFind) Union(a, b string) string {
	ra, rb := u.Add(a), u.Add(b)
	if ra == rb {
		return ra
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.members[ra] = append(u.members[ra], u.members[rb]...)
	sort.Strings(u.members[ra])
	delete(u.members, rb)
	return ra
}

func (u *oracleUnionFind) Members(id string) []string {
	root, ok := u.Find(id)
	if !ok {
		return nil
	}
	return slices.Clone(u.members[root])
}

func (u *oracleUnionFind) Groups() [][]string {
	roots := make([]string, 0, len(u.members))
	for r := range u.members {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	out := make([][]string, 0, len(roots))
	for _, r := range roots {
		out = append(out, slices.Clone(u.members[r]))
	}
	return out
}

// fuzzIDs are the IDs FuzzUnionFind draws from: few enough to collide,
// with shared prefixes, the empty ID and non-ASCII bytes, so that the
// byte order decides roots and member order.
var fuzzIDs = []string{"", "a", "a\x00", "aa", "ab", "b", "ba", "c", "q-1", "q-10", "q-2", "s00001", "s1", "z", "\xff", "A"}

// The operations FuzzUnionFind decodes, three bytes each: the
// operation, then two IDs (Grow reads the first as its size).
const (
	ufAdd = iota
	ufUnion
	ufFind
	ufMembers
	ufGroups
	ufLen
	ufSets
	ufGrow
	ufIntern
	ufInternBytes
	ufOps
)

// FuzzUnionFind decodes bytes into UnionFind calls and holds every
// result, and after every call the whole observable state (Len, Sets,
// Groups, IDs, and Find and Members of every ID), to the map-based
// oracle. InternBytes hands the ID in a buffer that is overwritten
// after the call, which a forest that kept the buffer's bytes would
// show.
func FuzzUnionFind(f *testing.F) {
	id := func(s string) byte { return byte(slices.Index(fuzzIDs, s)) }
	f.Add([]byte{ufUnion, id("a"), id("a"), ufUnion, id("z"), id("z"), ufAdd, id("b"), 0, ufUnion, id("b"), id("b")})     // self-union
	f.Add([]byte{ufUnion, id("b"), id("a"), ufUnion, id("z"), id("c"), ufUnion, id("c"), id("b"), ufMembers, id("z"), 0}) // larger ID first
	var chain []byte                                                                                                      // every ID chained into one component, largest first
	for i := len(fuzzIDs) - 1; i > 0; i-- {
		chain = append(chain, ufUnion, byte(i), byte(i-1), ufFind, byte(len(fuzzIDs)-1), 0)
	}
	f.Add(append(chain, ufGroups, 0, 0, ufSets, 0, 0))
	f.Add([]byte{ufAdd, id("q-1"), 0, ufUnion, id("q-1"), id("s1"), ufGrow, 200, 0, ufAdd, id("q-2"), 0, ufUnion, id("q-2"), id("s1"), ufLen, 0, 0}) // Grow on a non-empty forest
	f.Add([]byte{ufGrow, 8, 0, ufInternBytes, id("ab"), 0, ufIntern, id("aa"), 0, ufUnion, id("ab"), id("aa"), ufInternBytes, id("aa"), 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// 16 IDs take at most 15 merges: 128 calls reach every shape.
		ops = ops[:min(len(ops), 3*128)]
		u, o := NewUnionFind(), newOracleUnionFind()
		buf := make([]byte, 0, 8)
		for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
			op, a, b := ops[0]%ufOps, fuzzIDs[int(ops[1])%len(fuzzIDs)], fuzzIDs[int(ops[2])%len(fuzzIDs)]
			var got, want any
			switch op {
			case ufAdd:
				got, want = u.Add(a), o.Add(a)
			case ufUnion:
				got, want = u.Union(a, b), o.Union(a, b)
			case ufFind:
				r, ok := u.Find(a)
				wr, wok := o.Find(a)
				got, want = [2]any{r, ok}, [2]any{wr, wok}
			case ufMembers:
				got, want = u.Members(a), o.Members(a)
			case ufGroups:
				got, want = u.Groups(), o.Groups()
			case ufLen:
				got, want = u.Len(), len(o.parent)
			case ufSets:
				got, want = u.Sets(), len(o.members)
			case ufGrow:
				u.Grow(int(ops[1]))
			case ufIntern:
				o.Add(a)
				got, want = u.Intern(a), a
			case ufInternBytes:
				o.Add(a)
				buf = append(buf[:0], a...)
				got, want = u.InternBytes(buf), a
				for i := range buf {
					buf[i] = '#'
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: op %d(%q, %q) = %#v, oracle %#v", step, op, a, b, got, want)
			}
			if u.Len() != len(o.parent) || u.Sets() != len(o.members) {
				t.Fatalf("step %d: Len/Sets = %d/%d, oracle %d/%d", step, u.Len(), u.Sets(), len(o.parent), len(o.members))
			}
			if got, want := u.Groups(), o.Groups(); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Groups = %q, oracle %q", step, got, want)
			}
			if got := u.IDs(); !slices.Equal(got, o.added) {
				t.Fatalf("step %d: IDs = %q, oracle added %q", step, got, o.added)
			}
			for _, id := range fuzzIDs {
				r, ok := u.Find(id)
				wr, wok := o.Find(id)
				if r != wr || ok != wok || !slices.Equal(u.Members(id), o.Members(id)) {
					t.Fatalf("step %d: Find(%q) = %q, %v, Members %q; oracle %q, %v, %q", step, id, r, ok, u.Members(id), wr, wok, o.Members(id))
				}
			}
		}
	})
}
