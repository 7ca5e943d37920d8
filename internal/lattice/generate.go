package lattice

// This file implements the graph-generation component of §3.1.2: the
// Apriori-style join and prune phases that build the candidate node set
// C_{i+1} from the surviving nodes S_i, and the edge-generation step that
// derives E_{i+1} from C_{i+1} and E_i, eliminating implied edges. Each SQL
// statement in the paper has a direct counterpart below.

import "context"

// IDGen hands out unique node IDs across iterations, mirroring the paper's
// ID column in the Nodes relation.
type IDGen struct{ next int }

// NewIDGen returns a generator whose first ID is 1, like Fig. 6.
func NewIDGen() *IDGen { return &IDGen{next: 1} }

// Next returns a fresh ID.
func (g *IDGen) Next() int {
	id := g.next
	g.next++
	return id
}

// FirstIteration builds C1/E1: one chain of nodes per quasi-identifier
// attribute, with one node per domain in that attribute's hierarchy and one
// edge per direct domain generalization (Fig. 8's initialization).
// heights[i] is the hierarchy height of attribute i.
func FirstIteration(heights []int, ids *IDGen) *Graph {
	var nodes []*Node
	var edges []Edge
	for dim, h := range heights {
		prev := -1
		for level := 0; level <= h; level++ {
			n := &Node{ID: ids.Next(), Dims: []int{dim}, Levels: []int{level}, Parent1: -1, Parent2: -1}
			nodes = append(nodes, n)
			if prev >= 0 {
				edges = append(edges, Edge{Start: prev, End: n.ID})
			}
			prev = n.ID
		}
	}
	return NewGraph(nodes, edges)
}

// Generate performs one round of graph generation: given the graph of the
// i-th iteration and the set of surviving (k-anonymous) node IDs S_i, it
// returns the (i+1)-attribute candidate graph (C_{i+1}, E_{i+1}). The join,
// prune and edge phases check ctx every ctxCheckEvery steps, so a deadline
// interrupts a large generation; the error is then the context's.
func Generate(ctx context.Context, prev *Graph, survivors map[int]bool, ids *IDGen) (*Graph, error) {
	surviving := make([]*Node, 0, len(survivors))
	for _, n := range prev.Nodes() {
		if survivors[n.ID] {
			surviving = append(surviving, n)
		}
	}
	poll := &ctxPoll{ctx: ctx}
	candidates := joinPhase(surviving, ids, poll)
	if poll.err == nil {
		candidates = prunePhase(candidates, surviving, poll)
	}
	var edges []Edge
	if poll.err == nil {
		edges = edgeGeneration(candidates, prev, survivors, poll)
	}
	if poll.err != nil {
		return nil, poll.err
	}
	return NewGraph(candidates, edges), nil
}

// ctxCheckEvery is how many steps of a generation phase run between two
// context checks.
const ctxCheckEvery = 4096

// ctxPoll checks a context once every ctxCheckEvery steps and keeps the
// first error it sees.
type ctxPoll struct {
	ctx   context.Context
	steps int
	err   error
}

// stop counts one step and reports whether the phase must stop.
func (p *ctxPoll) stop() bool {
	if p.err == nil && p.steps%ctxCheckEvery == 0 {
		p.err = p.ctx.Err()
	}
	p.steps++
	return p.err != nil
}

// joinPhase implements the INSERT INTO C_i join query: combine every pair
// p, q of surviving nodes that agree on their first i-1 (dim, level)
// columns and have p.dim_i < q.dim_i, producing a node with i+1 attributes
// and recording the pair as Parent1/Parent2. The dimension ordering exists
// purely to avoid duplicates, as in Apriori.
func joinPhase(surviving []*Node, ids *IDGen, poll *ctxPoll) []*Node {
	// Group by the shared (dims[:i-1], levels[:i-1]) prefix.
	groups := make(map[string][]*Node)
	var orderKeys []string
	for _, n := range surviving {
		i := n.Size()
		k := EncodeKey(n.Dims[:i-1], n.Levels[:i-1])
		if _, seen := groups[k]; !seen {
			orderKeys = append(orderKeys, k)
		}
		groups[k] = append(groups[k], n)
	}
	var out []*Node
	for _, k := range orderKeys {
		g := groups[k]
		for ai, p := range g {
			for _, q := range g[ai+1:] {
				if poll.stop() {
					return nil
				}
				a, b := p, q
				if a.Dims[a.Size()-1] > b.Dims[b.Size()-1] {
					a, b = b, a
				}
				if a.Dims[a.Size()-1] == b.Dims[b.Size()-1] {
					continue // same last attribute (different levels): not joinable
				}
				n := &Node{
					ID:      ids.Next(),
					Dims:    append(append([]int(nil), a.Dims...), b.Dims[b.Size()-1]),
					Levels:  append(append([]int(nil), a.Levels...), b.Levels[b.Size()-1]),
					Parent1: a.ID,
					Parent2: b.ID,
				}
				out = append(out, n)
			}
		}
	}
	return out
}

// prunePhase implements the Apriori prune: drop any candidate with an
// (i-1)-attribute subset that is not among the survivors. The paper uses a
// hash tree from [2] for this membership structure; exact-match lookups in
// a hash map have the same access pattern and asymptotics (see DESIGN.md).
func prunePhase(candidates []*Node, surviving []*Node, poll *ctxPoll) []*Node {
	present := make(map[string]bool, len(surviving))
	for _, n := range surviving {
		present[n.Key()] = true
	}
	out := candidates[:0]
	dims := make([]int, 0)
	levels := make([]int, 0)
	for _, c := range candidates {
		if poll.stop() {
			return nil
		}
		ok := true
		for drop := 0; drop < c.Size() && ok; drop++ {
			dims = dims[:0]
			levels = levels[:0]
			for j := 0; j < c.Size(); j++ {
				if j != drop {
					dims = append(dims, c.Dims[j])
					levels = append(levels, c.Levels[j])
				}
			}
			if !present[EncodeKey(dims, levels)] {
				ok = false
			}
		}
		if ok {
			out = append(out, c)
		}
	}
	return out
}

// edgeGeneration implements the INSERT INTO E_i statement: a candidate edge
// p → q exists when q's parents are reachable from p's parents via edges of
// E_{i-1} in one of the three patterns of the WHERE clause; the EXCEPT then
// removes implied edges, i.e. candidate edges that factor through another
// candidate edge. Only edges between surviving parents matter, because
// every candidate's parents survive by construction.
func edgeGeneration(candidates []*Node, prev *Graph, survivors map[int]bool, poll *ctxPoll) []Edge {
	if len(candidates) == 0 {
		return nil
	}
	// Index candidates by their (Parent1, Parent2) pair.
	type pp struct{ p1, p2 int }
	byParents := make(map[pp]*Node, len(candidates))
	for _, c := range candidates {
		byParents[pp{c.Parent1, c.Parent2}] = c
	}
	// prevUp restricted to surviving endpoints (edges of E_{i-1} whose both
	// ends are still candidates' parents).
	upOf := func(id int) []int {
		var out []int
		for _, end := range prev.Up(id) {
			if survivors[end] {
				out = append(out, end)
			}
		}
		return out
	}

	candidate := make(map[Edge]bool)
	addIf := func(p *Node, q *Node) {
		if q != nil && q.ID != p.ID {
			candidate[Edge{p.ID, q.ID}] = true
		}
	}
	for _, p := range candidates {
		if poll.stop() {
			return nil
		}
		ups1 := upOf(p.Parent1)
		ups2 := upOf(p.Parent2)
		// (e.start = p.parent1 ∧ e.end = q.parent1 ∧ f.start = p.parent2 ∧ f.end = q.parent2)
		for _, e := range ups1 {
			for _, f := range ups2 {
				addIf(p, byParents[pp{e, f}])
			}
		}
		// (e.start = p.parent1 ∧ e.end = q.parent1 ∧ p.parent2 = q.parent2)
		for _, e := range ups1 {
			addIf(p, byParents[pp{e, p.Parent2}])
		}
		// (e.start = p.parent2 ∧ e.end = q.parent2 ∧ p.parent1 = q.parent1)
		for _, f := range ups2 {
			addIf(p, byParents[pp{p.Parent1, f}])
		}
	}
	// EXCEPT: remove edges implied by a two-step path of candidate edges.
	outBy := make(map[int][]int)
	for e := range candidate {
		outBy[e.Start] = append(outBy[e.Start], e.End)
	}
	var edges []Edge
	for e := range candidate {
		if poll.stop() {
			return nil
		}
		implied := false
		for _, mid := range outBy[e.Start] {
			if mid == e.End {
				continue
			}
			if candidate[Edge{mid, e.End}] {
				implied = true
				break
			}
		}
		if !implied {
			edges = append(edges, e)
		}
	}
	return edges
}
