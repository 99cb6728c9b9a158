package swifi

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hauberk/internal/gpu"
	"hauberk/internal/kir"
)

func TestRandomMaskBitCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, bits := range []int{1, 3, 6, 10, 15, 32} {
		for i := 0; i < 50; i++ {
			m := RandomMask(rng, bits)
			if got := setBits(m); got != bits {
				t.Fatalf("RandomMask(%d) produced %d bits (%#x)", bits, got, m)
			}
		}
	}
}

func TestRandomMaskQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(b uint8) bool {
		bits := int(b)%32 + 1
		return setBits(RandomMask(rng, bits)) == bits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomMaskPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("want panic for 0 bits")
		}
	}()
	RandomMask(rand.New(rand.NewSource(1)), 0)
}

func probeN(inj *Injector, v *kir.Var, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		val, _ := inj.Probe(gpu.ThreadCtx{}, 0, v, kir.HWALU, 100)
		out[i] = val
	}
	return out
}

func TestInjectorTargetsExactInstance(t *testing.T) {
	v := &kir.Var{Name: "x", Type: kir.I32}
	inj := &Injector{}
	inj.Arm(Command{Site: 0, Instance: 3, Mask: 0xFF})
	got := probeN(inj, v, 6)
	for i, val := range got {
		want := uint32(100)
		if i == 3 {
			want = 100 ^ 0xFF
		}
		if val != want {
			t.Fatalf("instance %d: got %d, want %d", i, val, want)
		}
	}
	if !inj.Injected || inj.OldValue != 100 || inj.NewValue != 100^0xFF {
		t.Fatalf("injection record wrong: %+v", inj)
	}
	if inj.Executions() != 6 {
		t.Fatalf("executions = %d", inj.Executions())
	}
}

func TestInjectorIgnoresOtherSites(t *testing.T) {
	v := &kir.Var{Name: "x", Type: kir.I32}
	inj := &Injector{}
	inj.Arm(Command{Site: 5, Instance: 0, Mask: 1})
	if val, changed := inj.Probe(gpu.ThreadCtx{}, 4, v, kir.HWALU, 9); changed || val != 9 {
		t.Fatalf("wrong site injected")
	}
	if inj.Executions() != 0 {
		t.Fatalf("other sites must not advance the instance counter")
	}
}

func TestInjectorCountSpansInstances(t *testing.T) {
	v := &kir.Var{Name: "x", Type: kir.F32}
	inj := &Injector{}
	inj.Arm(Command{Site: 0, Instance: 2, Count: 3, Mask: 1})
	got := probeN(inj, v, 8)
	for i, val := range got {
		corrupted := i >= 2 && i < 5
		if (val != 100) != corrupted {
			t.Fatalf("instance %d corruption = %v, want %v", i, val != 100, corrupted)
		}
	}
}

func TestInjectorPersistent(t *testing.T) {
	v := &kir.Var{Name: "x", Type: kir.F32}
	inj := &Injector{}
	inj.Arm(Command{Site: 0, Instance: 1, Mask: 1, Persistent: true})
	got := probeN(inj, v, 5)
	for i, val := range got {
		corrupted := i >= 1
		if (val != 100) != corrupted {
			t.Fatalf("instance %d corruption = %v, want %v", i, val != 100, corrupted)
		}
	}
}

// TestInjectorPresetAndSpent covers the resume contract: an injector
// preset to the executions a skipped prefix performed corrupts the same
// instances as one that counted them itself, and Spent turns true exactly
// when no later Probe can corrupt — never for a persistent fault.
func TestInjectorPresetAndSpent(t *testing.T) {
	v := &kir.Var{Name: "x", Type: kir.F32}
	inj := &Injector{}
	inj.Arm(Command{Site: 0, Instance: 5, Count: 2, Mask: 1})
	inj.Preset(4)
	if inj.Spent() {
		t.Fatal("spent before the target instance")
	}
	for n := 4; n < 8; n++ {
		val := probeN(inj, v, 1)[0]
		if corrupted := n == 5 || n == 6; (val != 100) != corrupted {
			t.Fatalf("instance %d corruption = %v, want %v", n, val != 100, corrupted)
		}
		if spent := n >= 6; inj.Spent() != spent {
			t.Fatalf("after instance %d: Spent() = %v, want %v", n, inj.Spent(), spent)
		}
	}
	if !inj.Spent() || !inj.Injected || inj.Executions() != 8 {
		t.Fatalf("after the span: spent %v injected %v executions %d", inj.Spent(), inj.Injected, inj.Executions())
	}
	inj.Arm(Command{Site: 0, Instance: 0, Mask: 1, Persistent: true})
	probeN(inj, v, 3)
	if inj.Spent() {
		t.Fatal("a persistent fault is never spent")
	}
	if !(&Injector{}).Spent() {
		t.Fatal("an unarmed injector is spent")
	}
}

func TestUnarmedInjectorInert(t *testing.T) {
	v := &kir.Var{Name: "x", Type: kir.I32}
	inj := &Injector{}
	if val, changed := inj.Probe(gpu.ThreadCtx{}, 0, v, kir.HWALU, 1); changed || val != 1 {
		t.Fatalf("zero injector must be inert")
	}
}

func TestClassifyChange(t *testing.T) {
	cases := []struct {
		orig, corrupted float32
		want            MagnitudeBucket
	}{
		{1, 1, BucketUnder1Em15},
		{1, 1 + 1e-7, Bucket1Em9To1Em6},
		{1, 2, Bucket1Em3To1E3},
		{1, 2e4, Bucket1E3To1E6},
		{1, 3e7, Bucket1E6To1E9},
		{1, 5e12, Bucket1E9To1E15},
		{1, 3e20, BucketOver1E15},
		{1, float32(math.NaN()), BucketOver1E15},
	}
	for _, tc := range cases {
		if got := ClassifyChange(tc.orig, tc.corrupted); got != tc.want {
			t.Errorf("ClassifyChange(%g, %g) = %s, want %s", tc.orig, tc.corrupted, got, tc.want)
		}
	}
}

func TestFlipStudyDistributionsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	res := FlipStudy(rng, []int{1, 6, 15}, 500)
	if len(res) != int(NumValueBands) {
		t.Fatalf("bands = %d", len(res))
	}
	for band := range res {
		for bi := range res[band] {
			sum := 0.0
			for _, f := range res[band][bi] {
				if f < 0 || f > 1 {
					t.Fatalf("fraction %f out of range", f)
				}
				sum += f
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("band %d bits-index %d fractions sum to %f", band, bi, sum)
			}
		}
	}
}

func TestFlipStudyMoreBitsLargerChanges(t *testing.T) {
	// Figure 15's trend: the >1e15 share grows with the corrupted-bit
	// count, in every original-value band.
	rng := rand.New(rand.NewSource(5))
	res := FlipStudy(rng, []int{1, 15}, 4000)
	for band := range res {
		low := res[band][0][BucketOver1E15]
		high := res[band][1][BucketOver1E15]
		if high <= low {
			t.Errorf("band %d: >1e15 share did not grow with bit count (%f vs %f)",
				band, low, high)
		}
	}
}

func TestParseCommand(t *testing.T) {
	c, err := ParseCommand("12:500:0x40000000")
	if err != nil {
		t.Fatal(err)
	}
	if c.Site != 12 || c.Instance != 500 || c.Mask != 0x40000000 {
		t.Fatalf("parsed %+v", c)
	}
	if _, err := ParseCommand("12:500:ff"); err != nil {
		t.Fatalf("mask without 0x prefix must parse: %v", err)
	}
	for _, bad := range []string{"", "1:2", "x:2:3", "1:y:3", "1:2:zz", "1:2:0"} {
		if _, err := ParseCommand(bad); err == nil {
			t.Errorf("ParseCommand(%q) should fail", bad)
		}
	}
}

func TestParseCommandErrorPaths(t *testing.T) {
	cases := []struct {
		in   string
		want string // substring the error must carry so CLI users see the cause
	}{
		{"1:2:3:4", "want site:instance:mask"}, // bad field count (too many)
		{"1:2:3:4:5", "want site:instance:mask"},
		{"12:500", "want site:instance:mask"}, // bad field count (too few)
		{"abc:2:ff", "bad site"},
		{"1.5:2:ff", "bad site"},
		{"1:abc:ff", "bad instance"},
		{"1:2:xyz", "bad mask"},
		{"1:2:1ffffffff", "bad mask"}, // mask wider than 32 bits
		{"1:2:-4", "bad mask"},
		{"1:2:0", "empty error mask"},   // zero-bit mask injects nothing
		{"1:2:0x0", "empty error mask"}, // zero-bit mask, 0x form
	}
	for _, tc := range cases {
		_, err := ParseCommand(tc.in)
		if err == nil {
			t.Errorf("ParseCommand(%q) should fail", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseCommand(%q) error %q, want it to mention %q", tc.in, err, tc.want)
		}
	}
}

func TestCommandKeyStability(t *testing.T) {
	c := Command{Site: 12, Instance: 500, Mask: 0x40000000}
	if got, want := c.Key(), "12:500:40000000"; got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
	// The key round-trips through the CLI syntax.
	parsed, err := ParseCommand(c.Key())
	if err != nil {
		t.Fatalf("Key %q does not parse: %v", c.Key(), err)
	}
	if parsed != c {
		t.Fatalf("round-trip %+v != %+v", parsed, c)
	}
	// Count and persistence are part of the identity: an intermittent or
	// permanent variant is a different experiment.
	variants := []Command{
		c,
		{Site: 12, Instance: 500, Mask: 0x40000000, Count: 10000},
		{Site: 12, Instance: 500, Mask: 0x40000000, Persistent: true},
		{Site: 12, Instance: 501, Mask: 0x40000000},
		{Site: 13, Instance: 500, Mask: 0x40000000},
	}
	seen := map[string]bool{}
	for _, v := range variants {
		k := v.Key()
		if seen[k] {
			t.Fatalf("duplicate key %q for distinct command %+v", k, v)
		}
		seen[k] = true
	}
	// Count 0 and 1 both mean a single transient upset — same experiment,
	// same key.
	one := Command{Site: 12, Instance: 500, Mask: 0x40000000, Count: 1}
	if one.Key() != c.Key() {
		t.Fatalf("Count 1 key %q differs from Count 0 key %q", one.Key(), c.Key())
	}
}
