package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/netlist"
)

// setCouplingLoop is the reference insertion: one SetCoupling scan per
// pair, in sorted pair order, skipping refs without an inductor.
func setCouplingLoop(p *Project, ks map[[2]string]float64) *netlist.Circuit {
	ckt := p.Circuit.Clone()
	pairs := make([][2]string, 0, len(ks))
	for pair := range ks {
		pairs = append(pairs, pair)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	for _, pair := range pairs {
		la, lb := p.InductorOf[pair[0]], p.InductorOf[pair[1]]
		if la == "" || lb == "" {
			continue
		}
		ckt.SetCoupling(la, lb, ks[pair])
	}
	return ckt
}

// randomCouplingProject builds a circuit of inductors with pre-existing K
// elements in both orientations (some pairs coupled twice), and a
// reference map in which some refs share an inductor and some have none.
func randomCouplingProject(rng *rand.Rand) (*Project, []string) {
	c := &netlist.Circuit{}
	nl := 2 + rng.Intn(8)
	for i := 0; i < nl; i++ {
		c.AddL(fmt.Sprintf("L%d", i), fmt.Sprintf("n%d", i), "0", 1e-6)
		if rng.Intn(3) == 0 {
			c.AddR(fmt.Sprintf("R%d", i), fmt.Sprintf("n%d", i), "0", 1)
		}
	}
	for i := rng.Intn(2 * nl); i > 0; i-- {
		a, b := rng.Intn(nl), rng.Intn(nl)
		c.AddK(fmt.Sprintf("Kpre%d", i), fmt.Sprintf("L%d", a), fmt.Sprintf("L%d", b), rng.Float64())
	}
	p := &Project{Circuit: c, InductorOf: map[string]string{}}
	refs := make([]string, 2+rng.Intn(10))
	for i := range refs {
		refs[i] = fmt.Sprintf("U%02d", i)
		if rng.Intn(5) > 0 { // the rest have no inductor
			p.InductorOf[refs[i]] = fmt.Sprintf("L%d", rng.Intn(nl))
		}
	}
	return p, refs
}

// TestCircuitWithCouplingsMatchesSetCouplingLoop: the indexed insertion
// yields exactly the element slice — order, names, values — of the
// per-pair SetCoupling loop, and leaves the project circuit untouched.
func TestCircuitWithCouplingsMatchesSetCouplingLoop(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		p, refs := randomCouplingProject(rng)
		ks := map[[2]string]float64{}
		for i := rng.Intn(3 * len(refs)); i > 0; i-- {
			a, b := refs[rng.Intn(len(refs))], refs[rng.Intn(len(refs))]
			ks[[2]string{a, b}] = rng.Float64()*2 - 1
		}
		before := p.Circuit.String()
		want := setCouplingLoop(p, ks)
		got := p.CircuitWithCouplings(ks)
		if len(got.Elements) != len(want.Elements) {
			t.Fatalf("trial %d: %d elements, SetCoupling loop %d", trial, len(got.Elements), len(want.Elements))
		}
		for i := range want.Elements {
			if !reflect.DeepEqual(got.Elements[i], want.Elements[i]) {
				t.Fatalf("trial %d, element %d: %+v, SetCoupling loop %+v", trial, i, *got.Elements[i], *want.Elements[i])
			}
		}
		if p.Circuit.String() != before {
			t.Fatalf("trial %d: project circuit mutated", trial)
		}
	}
}
