package netlist

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestParseValueSuffixes(t *testing.T) {
	t.Parallel()
	cases := []struct {
		in   string
		want float64
	}{
		{"10", 10},
		{"1.5u", 1.5e-6},
		{"1.5uF", 1.5e-6},
		{"100n", 1e-7},
		{"22p", 22e-12},
		{"3f", 3e-15},
		{"4.7k", 4700},
		{"4.7kOhm", 4700},
		{"1meg", 1e6},
		{"2g", 2e9},
		{"1t", 1e12},
		{"5m", 5e-3},
		{"-12", -12},
		{"1e-6", 1e-6},
		{"2.5e3", 2500},
		{"3V", 3},
	}
	for _, c := range cases {
		got, err := ParseValue(c.in)
		if err != nil {
			t.Errorf("ParseValue(%q): %v", c.in, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-15*math.Abs(c.want) {
			t.Errorf("ParseValue(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "abc", "--3"} {
		if _, err := ParseValue(bad); err == nil {
			t.Errorf("ParseValue(%q) should fail", bad)
		}
	}
}

func TestPulseWaveform(t *testing.T) {
	t.Parallel()
	p := &Pulse{V1: 0, V2: 10, Delay: 1e-6, Rise: 1e-7, Fall: 1e-7, Width: 4e-7, Period: 1e-6}
	cases := []struct {
		t    float64
		want float64
	}{
		{0, 0},             // before delay
		{1e-6, 0},          // start of rise
		{1e-6 + 5e-8, 5},   // mid rise
		{1e-6 + 1e-7, 10},  // top start
		{1e-6 + 3e-7, 10},  // top
		{1e-6 + 5e-7, 10},  // fall start
		{1e-6 + 5.5e-7, 5}, // mid fall
		{1e-6 + 7e-7, 0},   // low
		{2e-6 + 5e-8, 5},   // periodic repeat, mid rise
	}
	for _, c := range cases {
		if got := p.At(c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Pulse.At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	// Zero-period pulse stays at V1.
	if (&Pulse{V1: 3}).At(1) != 3 {
		t.Error("zero-period pulse")
	}
	// Zero rise/fall are hard edges.
	hard := &Pulse{V1: 0, V2: 1, Width: 0.5, Period: 1}
	if hard.At(0) != 1 || hard.At(0.6) != 0 {
		t.Error("hard-edge pulse")
	}
}

func TestScheduleOn(t *testing.T) {
	t.Parallel()
	s := &Schedule{Delay: 1, Period: 10, OnTime: 3}
	cases := []struct {
		t    float64
		want bool
	}{
		{0, false}, {1, true}, {3.9, true}, {4, false}, {10.5, false},
		{11, true}, {13.5, true}, {14.1, false},
	}
	for _, c := range cases {
		if got := s.On(c.t); got != c.want {
			t.Errorf("On(%v) = %v", c.t, got)
		}
	}
	var nilSched *Schedule
	if nilSched.On(5) {
		t.Error("nil schedule must be off")
	}
}

func TestBuildAndValidate(t *testing.T) {
	t.Parallel()
	c := &Circuit{Title: "pi filter"}
	c.AddV("V1", "in", "0", Source{ACMag: 1})
	c.AddR("R1", "in", "a", 0.1)
	c.AddC("C1", "a", "0", 1e-6)
	c.AddL("L1", "a", "b", 10e-6)
	c.AddC("C2", "b", "0", 1e-6)
	c.AddL("L2", "b", "out", 1e-6)
	c.AddR("RL", "out", "0", 50)
	c.AddK("K1", "L1", "L2", 0.05)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	nodes := c.Nodes()
	want := []string{"a", "b", "in", "out"}
	if len(nodes) != len(want) {
		t.Fatalf("nodes = %v", nodes)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Errorf("nodes = %v, want %v", nodes, want)
		}
	}
	if inds := c.Inductors(); len(inds) != 2 || inds[0] != "L1" {
		t.Errorf("Inductors = %v", inds)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	t.Parallel()
	mk := func(f func(c *Circuit)) error {
		c := &Circuit{}
		c.AddR("R1", "a", "0", 1)
		f(c)
		return c.Validate()
	}
	if err := mk(func(c *Circuit) { c.AddR("R1", "b", "0", 1) }); err == nil {
		t.Error("duplicate name not caught")
	}
	if err := mk(func(c *Circuit) { c.AddC("C1", "a", "0", -1) }); err == nil {
		t.Error("negative value not caught")
	}
	// A K naming a missing element or a non-inductor, on either side.
	for _, tc := range []struct{ la, lb, bad string }{
		{"L1", "LX", "LX"}, {"LX", "L1", "LX"}, {"R1", "L1", "R1"}, {"L1", "R1", "R1"},
	} {
		err := mk(func(c *Circuit) {
			c.AddL("L1", "a", "0", 1e-6)
			c.AddK("K1", tc.la, tc.lb, 0.1)
		})
		if want := `netlist: K1 couples unknown inductor "` + tc.bad + `"`; err == nil || err.Error() != want {
			t.Errorf("K1 %s/%s: error %v, want %q", tc.la, tc.lb, err, want)
		}
	}
	if err := mk(func(c *Circuit) {
		c.AddL("L1", "a", "0", 1e-6)
		c.AddL("L2", "a", "0", 1e-6)
		c.AddK("K1", "L1", "L2", 1.5)
	}); err == nil {
		t.Error("|k|>1 not caught")
	}
	if err := mk(func(c *Circuit) {
		c.AddL("L1", "a", "0", 1e-6)
		c.AddK("K1", "L1", "L1", 0.5)
	}); err == nil {
		t.Error("self-coupling not caught")
	}
	// No ground.
	c := &Circuit{}
	c.AddR("R1", "a", "b", 1)
	if err := c.Validate(); err == nil {
		t.Error("missing ground not caught")
	}
}

func TestSetCouplingUpserts(t *testing.T) {
	t.Parallel()
	c := &Circuit{}
	c.AddL("L1", "a", "0", 1e-6)
	c.AddL("L2", "b", "0", 1e-6)
	c.SetCoupling("L1", "L2", 0.1)
	c.SetCoupling("L2", "L1", 0.2) // reversed order updates the same K
	count := 0
	for _, e := range c.Elements {
		if e.Kind == K {
			count++
			if e.Coup != 0.2 {
				t.Errorf("k = %v, want 0.2", e.Coup)
			}
		}
	}
	if count != 1 {
		t.Errorf("K count = %d", count)
	}
}

func TestRemoveCouplings(t *testing.T) {
	t.Parallel()
	c := &Circuit{}
	c.AddL("L1", "a", "0", 1e-6)
	c.AddL("L2", "b", "0", 1e-6)
	c.AddK("K1", "L1", "L2", 0.1)
	c.RemoveCouplings()
	for _, e := range c.Elements {
		if e.Kind == K {
			t.Fatal("K element survived RemoveCouplings")
		}
	}
	if len(c.Elements) != 2 {
		t.Errorf("elements = %d", len(c.Elements))
	}
}

func TestCloneIsDeep(t *testing.T) {
	t.Parallel()
	c := &Circuit{}
	c.AddV("V1", "in", "0", Source{DC: 5, Pulse: &Pulse{V2: 10, Period: 1e-6, Width: 5e-7}})
	c.AddSwitch("S1", "in", "out", 0.1, 1e9, Schedule{Period: 1e-6, OnTime: 5e-7})
	c.AddR("RL", "out", "0", 50)
	cl := c.Clone()
	cl.Find("V1").Src.DC = 99
	cl.Find("V1").Src.Pulse.V2 = 42
	cl.Find("S1").Sched.OnTime = 1
	if c.Find("V1").Src.DC != 5 || c.Find("V1").Src.Pulse.V2 != 10 {
		t.Error("Clone shares Source")
	}
	if c.Find("S1").Sched.OnTime != 5e-7 {
		t.Error("Clone shares Schedule")
	}
}

func TestRoundTrip(t *testing.T) {
	t.Parallel()
	c := &Circuit{Title: "buck"}
	c.AddV("Vin", "in", "0", Source{DC: 12})
	c.AddV("Vg", "g", "0", Source{Pulse: &Pulse{V1: 0, V2: 1, Rise: 1e-8, Fall: 1e-8, Width: 2e-6, Period: 5e-6}})
	c.AddSwitch("S1", "in", "sw", 0.05, 1e8, Schedule{Period: 5e-6, OnTime: 2e-6})
	c.AddDiode("D1", "0", "sw", 0.02, 1e7)
	c.AddL("L1", "sw", "out", 47e-6)
	c.AddC("C1", "out", "0", 100e-6)
	c.AddR("RL", "out", "0", 6)
	c.AddL("L2", "in", "x", 1e-6)
	c.AddK("K1", "L1", "L2", 0.03)
	c.AddI("Inoise", "sw", "0", Source{ACMag: 0.5, ACPhase: 1.2})

	text := c.String()
	got, err := ParseString(text)
	if err != nil {
		t.Fatalf("Parse(String): %v\n%s", err, text)
	}
	if len(got.Elements) != len(c.Elements) {
		t.Fatalf("element count %d != %d", len(got.Elements), len(c.Elements))
	}
	if got.Title != "buck" {
		t.Errorf("title = %q", got.Title)
	}
	// Spot-check a few round-tripped values.
	if got.Find("L1").Value != 47e-6 {
		t.Errorf("L1 = %v", got.Find("L1").Value)
	}
	if got.Find("K1").Coup != 0.03 {
		t.Errorf("K1 = %v", got.Find("K1").Coup)
	}
	p := got.Find("Vg").Src.Pulse
	if p == nil || p.Period != 5e-6 || p.Width != 2e-6 {
		t.Errorf("Vg pulse = %+v", p)
	}
	s := got.Find("S1")
	if s.Value != 0.05 || s.Roff != 1e8 || s.Sched.OnTime != 2e-6 {
		t.Errorf("S1 = %+v", s)
	}
	d := got.Find("D1")
	if d.Value != 0.02 || d.Roff != 1e7 {
		t.Errorf("D1 = %+v", d)
	}
	i := got.Find("Inoise")
	if i.Src.ACMag != 0.5 || i.Src.ACPhase != 1.2 {
		t.Errorf("Inoise = %+v", i.Src)
	}
}

func TestParseErrors(t *testing.T) {
	t.Parallel()
	bad := []string{
		"R1 a 0",                    // missing value
		"R1 a 0 xyz",                // bad value
		"X1 a 0 5",                  // unknown prefix
		"S1 a 0 0.1 1e9",            // missing SCHED
		"S1 a 0 0.1 1e9 SCHED(1 2)", // short SCHED
		"V1 a 0 PULSE(1 2 3)",       // short PULSE
		"K1 L1 L2 0.5\nR1 a 0 5",    // K referencing unknown inductors
	}
	for _, s := range bad {
		if _, err := ParseString(s + "\n.end\n"); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestParseNeverPanics(t *testing.T) {
	t.Parallel()
	// The parser must reject arbitrary garbage with errors, not panics.
	rng := rand.New(rand.NewSource(99))
	alphabet := []byte("RLCKVISD abc0123().,-+eEuUnNpP\n\t*#")
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(120)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = alphabet[rng.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Parse panicked on %q: %v", buf, r)
				}
			}()
			_, _ = ParseString(string(buf))
		}()
	}
}

func TestParseValueNeverPanics(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	alphabet := []byte("0123456789.eE+-uUnNpPkKmMgGtTfF ")
	for trial := 0; trial < 1000; trial++ {
		n := rng.Intn(20)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = alphabet[rng.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ParseValue panicked on %q: %v", buf, r)
				}
			}()
			_, _ = ParseValue(string(buf))
		}()
	}
}

func TestParseCommentsAndTitle(t *testing.T) {
	t.Parallel()
	src := `* my filter
; a comment
# another
R1 in 0 50
.end
`
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Title != "my filter" {
		t.Errorf("title = %q", c.Title)
	}
	if len(c.Elements) != 1 {
		t.Errorf("elements = %d", len(c.Elements))
	}
}

func TestTokenizeKeepsGroups(t *testing.T) {
	t.Parallel()
	got := tokenize("V1 a 0 PULSE(0 5 0 1n 1n 2u 5u)")
	if len(got) != 4 {
		t.Fatalf("tokens = %v", got)
	}
	if !strings.HasPrefix(got[3], "PULSE(") {
		t.Errorf("group token = %q", got[3])
	}
}
