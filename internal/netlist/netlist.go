// Package netlist provides the circuit data model of the EMI prediction
// flow: a SPICE-like netlist of passive elements, independent sources,
// switches and diodes, including the mutual-inductance (K) elements through
// which the PEEC coupling results enter the circuit simulation.
package netlist

import (
	"fmt"
	"sort"
	"strings"
)

// Kind enumerates the element types.
type Kind int

// Element kinds.
const (
	R  Kind = iota // resistor
	L              // inductor
	C              // capacitor
	K              // mutual coupling between two inductors
	V              // independent voltage source
	I              // independent current source
	SW             // time-controlled switch (Ron/Roff)
	D              // diode (ideal switched resistance)
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case R:
		return "R"
	case L:
		return "L"
	case C:
		return "C"
	case K:
		return "K"
	case V:
		return "V"
	case I:
		return "I"
	case SW:
		return "S"
	case D:
		return "D"
	}
	return "?"
}

// Pulse describes a SPICE PULSE source: the trapezoidal switching waveform
// whose spectrum drives the conducted-emission prediction.
type Pulse struct {
	V1, V2 float64 // low and high level
	Delay  float64
	Rise   float64
	Fall   float64
	Width  float64 // time at V2 (excluding edges)
	Period float64
}

// At evaluates the pulse at time t.
func (p *Pulse) At(t float64) float64 {
	if p.Period <= 0 {
		return p.V1
	}
	t -= p.Delay
	if t < 0 {
		return p.V1
	}
	for t >= p.Period {
		t -= p.Period
	}
	switch {
	case t < p.Rise:
		if p.Rise == 0 {
			return p.V2
		}
		return p.V1 + (p.V2-p.V1)*t/p.Rise
	case t < p.Rise+p.Width:
		return p.V2
	case t < p.Rise+p.Width+p.Fall:
		if p.Fall == 0 {
			return p.V1
		}
		return p.V2 + (p.V1-p.V2)*(t-p.Rise-p.Width)/p.Fall
	default:
		return p.V1
	}
}

// Source holds the excitation of a V or I element.
type Source struct {
	DC      float64
	ACMag   float64
	ACPhase float64 // radians
	Pulse   *Pulse
}

// Schedule describes the on/off timing of a switch: it is on while
// fmod(t-Delay, Period) < OnTime.
type Schedule struct {
	Delay  float64
	Period float64
	OnTime float64
}

// On reports whether the switch conducts at time t.
func (s *Schedule) On(t float64) bool {
	if s == nil || s.Period <= 0 {
		return false
	}
	t -= s.Delay
	if t < 0 {
		return false
	}
	for t >= s.Period {
		t -= s.Period
	}
	return t < s.OnTime
}

// Element is one netlist entry.
type Element struct {
	Kind  Kind
	Name  string
	N1    string // positive node (current flows N1 → N2 inside the element)
	N2    string
	Value float64 // R: Ω, L: H, C: F, SW/D: on-resistance Ω

	// K elements couple two named inductors with factor Coup.
	LA, LB string
	Coup   float64

	Src *Source // V and I elements

	// Switches and diodes.
	Roff  float64
	Sched *Schedule
}

// Circuit is an ordered list of elements plus a title.
type Circuit struct {
	Title    string
	Elements []*Element
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{Title: c.Title, Elements: make([]*Element, len(c.Elements))}
	for i, e := range c.Elements {
		ce := *e
		if e.Src != nil {
			s := *e.Src
			if e.Src.Pulse != nil {
				p := *e.Src.Pulse
				s.Pulse = &p
			}
			ce.Src = &s
		}
		if e.Sched != nil {
			sc := *e.Sched
			ce.Sched = &sc
		}
		out.Elements[i] = &ce
	}
	return out
}

// Find returns the element with the given name, or nil.
func (c *Circuit) Find(name string) *Element {
	for _, e := range c.Elements {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// add appends an element after checking for duplicate names.
func (c *Circuit) add(e *Element) *Element {
	c.Elements = append(c.Elements, e)
	return e
}

// AddR adds a resistor.
func (c *Circuit) AddR(name, n1, n2 string, ohms float64) *Element {
	return c.add(&Element{Kind: R, Name: name, N1: n1, N2: n2, Value: ohms})
}

// AddL adds an inductor.
func (c *Circuit) AddL(name, n1, n2 string, henry float64) *Element {
	return c.add(&Element{Kind: L, Name: name, N1: n1, N2: n2, Value: henry})
}

// AddC adds a capacitor.
func (c *Circuit) AddC(name, n1, n2 string, farad float64) *Element {
	return c.add(&Element{Kind: C, Name: name, N1: n1, N2: n2, Value: farad})
}

// AddK adds a mutual coupling of factor k between the named inductors.
func (c *Circuit) AddK(name, la, lb string, k float64) *Element {
	return c.add(&Element{Kind: K, Name: name, LA: la, LB: lb, Coup: k})
}

// AddV adds an independent voltage source.
func (c *Circuit) AddV(name, n1, n2 string, src Source) *Element {
	s := src
	return c.add(&Element{Kind: V, Name: name, N1: n1, N2: n2, Src: &s})
}

// AddI adds an independent current source (current flows N1 → N2 through
// the source, i.e. it pushes current into N2).
func (c *Circuit) AddI(name, n1, n2 string, src Source) *Element {
	s := src
	return c.add(&Element{Kind: I, Name: name, N1: n1, N2: n2, Src: &s})
}

// AddSwitch adds a time-scheduled switch with the given on/off resistances.
func (c *Circuit) AddSwitch(name, n1, n2 string, ron, roff float64, sched Schedule) *Element {
	sc := sched
	return c.add(&Element{Kind: SW, Name: name, N1: n1, N2: n2, Value: ron, Roff: roff, Sched: &sc})
}

// AddDiode adds an ideal switched-resistance diode (anode N1, cathode N2).
func (c *Circuit) AddDiode(name, n1, n2 string, ron, roff float64) *Element {
	return c.add(&Element{Kind: D, Name: name, N1: n1, N2: n2, Value: ron, Roff: roff})
}

// SetCoupling inserts or updates the K element between two inductors.
func (c *Circuit) SetCoupling(la, lb string, k float64) *Element {
	for _, e := range c.Elements {
		if e.Kind == K && ((e.LA == la && e.LB == lb) || (e.LA == lb && e.LB == la)) {
			e.Coup = k
			return e
		}
	}
	return c.AddK("K_"+la+"_"+lb, la, lb, k)
}

// RemoveCouplings deletes all K elements, producing the "neglecting magnetic
// couplings" variant of the prediction (the paper's Figure 13).
func (c *Circuit) RemoveCouplings() {
	out := c.Elements[:0]
	for _, e := range c.Elements {
		if e.Kind != K {
			out = append(out, e)
		}
	}
	c.Elements = out
}

// Inductors returns the names of all inductors, in netlist order.
func (c *Circuit) Inductors() []string {
	var out []string
	for _, e := range c.Elements {
		if e.Kind == L {
			out = append(out, e.Name)
		}
	}
	return out
}

// Nodes returns all node names except ground ("0"), sorted.
func (c *Circuit) Nodes() []string {
	set := map[string]bool{}
	for _, e := range c.Elements {
		if e.Kind == K {
			continue
		}
		for _, n := range []string{e.N1, e.N2} {
			if n != "" && n != "0" {
				set[n] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Validate checks structural consistency: unique names, K elements
// referencing existing inductors with |k| <= 1, positive passive values and
// a ground reference.
func (c *Circuit) Validate() error {
	byName := make(map[string]*Element, len(c.Elements))
	hasGround := false
	for _, e := range c.Elements {
		if e.Name == "" {
			return fmt.Errorf("netlist: element with empty name (kind %v)", e.Kind)
		}
		if byName[e.Name] != nil {
			return fmt.Errorf("netlist: duplicate element name %q", e.Name)
		}
		byName[e.Name] = e
		// Names must follow the SPICE convention — kind letter first — or
		// the text form would not parse back to the same circuit.
		if got := strings.ToUpper(e.Name[:1]); got != e.Kind.String() {
			return fmt.Errorf("netlist: element %q must start with %q", e.Name, e.Kind.String())
		}
		switch e.Kind {
		case R, L, C:
			if e.Value <= 0 {
				return fmt.Errorf("netlist: %s has non-positive value %g", e.Name, e.Value)
			}
		case SW, D:
			if e.Value <= 0 || e.Roff <= 0 {
				return fmt.Errorf("netlist: %s needs positive on/off resistances", e.Name)
			}
		case V, I:
			if e.Src == nil {
				return fmt.Errorf("netlist: source %s has no excitation", e.Name)
			}
		}
		if e.Kind != K && (e.N1 == "0" || e.N2 == "0") {
			hasGround = true
		}
	}
	for _, e := range c.Elements {
		if e.Kind != K {
			continue
		}
		la, lb := byName[e.LA], byName[e.LB]
		if la == nil || la.Kind != L {
			return fmt.Errorf("netlist: %s couples unknown inductor %q", e.Name, e.LA)
		}
		if lb == nil || lb.Kind != L {
			return fmt.Errorf("netlist: %s couples unknown inductor %q", e.Name, e.LB)
		}
		if e.LA == e.LB {
			return fmt.Errorf("netlist: %s couples %q with itself", e.Name, e.LA)
		}
		if e.Coup < -1 || e.Coup > 1 {
			return fmt.Errorf("netlist: %s has |k| > 1 (%g)", e.Name, e.Coup)
		}
	}
	if len(c.Elements) > 0 && !hasGround {
		return fmt.Errorf("netlist: no element connects to ground node 0")
	}
	return nil
}

// String renders the circuit in the text format understood by Parse.
func (c *Circuit) String() string {
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "* %s\n", c.Title)
	}
	for _, e := range c.Elements {
		switch e.Kind {
		case R, L, C:
			fmt.Fprintf(&b, "%s %s %s %g\n", e.Name, e.N1, e.N2, e.Value)
		case K:
			fmt.Fprintf(&b, "%s %s %s %g\n", e.Name, e.LA, e.LB, e.Coup)
		case V, I:
			fmt.Fprintf(&b, "%s %s %s", e.Name, e.N1, e.N2)
			// An all-zero source still needs one clause: a bare
			// "Vname n1 n2" line would not parse back.
			if e.Src.DC != 0 || (e.Src.ACMag == 0 && e.Src.Pulse == nil) {
				fmt.Fprintf(&b, " DC %g", e.Src.DC)
			}
			if e.Src.ACMag != 0 {
				fmt.Fprintf(&b, " AC %g %g", e.Src.ACMag, e.Src.ACPhase)
			}
			if p := e.Src.Pulse; p != nil {
				fmt.Fprintf(&b, " PULSE(%g %g %g %g %g %g %g)",
					p.V1, p.V2, p.Delay, p.Rise, p.Fall, p.Width, p.Period)
			}
			b.WriteString("\n")
		case SW:
			fmt.Fprintf(&b, "%s %s %s %g %g SCHED(%g %g %g)\n",
				e.Name, e.N1, e.N2, e.Value, e.Roff,
				e.Sched.Delay, e.Sched.Period, e.Sched.OnTime)
		case D:
			fmt.Fprintf(&b, "%s %s %s %g %g\n", e.Name, e.N1, e.N2, e.Value, e.Roff)
		}
	}
	b.WriteString(".end\n")
	return b.String()
}
