package trace

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestGenerateSpikesShape(t *testing.T) {
	tr := Generate(Spikes, 10, 0.001, 1)
	s := tr.Stats()
	if s.MaxV < 5.0 {
		t.Errorf("spikes trace must exceed 5 V, max %g", s.MaxV)
	}
	if s.MinV > 0.2 {
		t.Errorf("spikes troughs must be near 0 V, min %g", s.MinV)
	}
	// spikes are short: less than 15% of samples should sit above 2 V
	high := 0
	for _, v := range tr.SamplesV {
		if v > 2 {
			high++
		}
	}
	if frac := float64(high) / float64(len(tr.SamplesV)); frac > 0.15 {
		t.Errorf("spikes should be narrow: %.1f%% of samples above 2 V", frac*100)
	}
}

func TestGenerateRampShape(t *testing.T) {
	tr := Generate(Ramp, 10, 0.001, 2)
	s := tr.Stats()
	if s.MinV > 0.3 {
		t.Errorf("ramp should start near 0 V, min %g", s.MinV)
	}
	if s.MaxV < 2.2 || s.MaxV > 2.9 {
		t.Errorf("ramp should reach ≈2.5 V, max %g", s.MaxV)
	}
	// trend: mean of second half well above mean of first half
	n := len(tr.SamplesV)
	var a, b float64
	for i, v := range tr.SamplesV {
		if i < n/2 {
			a += v
		} else {
			b += v
		}
	}
	if b <= a {
		t.Error("ramp should trend upward")
	}
}

func TestGenerateMultiPeakShape(t *testing.T) {
	tr := Generate(MultiPeak, 10, 0.001, 3)
	s := tr.Stats()
	if s.MaxV < 3.5 || s.MaxV > 5.5+1e-9 {
		t.Errorf("multipeak peaks must reach 3.5–5.5 V, max %g", s.MaxV)
	}
	if s.MinV < 0 || s.MinV > 1.5 {
		t.Errorf("multipeak troughs must stay within 0–1.5 V, min %g", s.MinV)
	}
	// count rising crossings of the midline to confirm multiple peaks
	crossings := 0
	mid := (s.MaxV + s.MinV) / 2
	for i := 1; i < len(tr.SamplesV); i++ {
		if tr.SamplesV[i-1] < mid && tr.SamplesV[i] >= mid {
			crossings++
		}
	}
	if crossings < 3 {
		t.Errorf("expected multiple peaks, found %d midline crossings", crossings)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, k := range Kinds() {
		a := Generate(k, 5, 0.001, 42)
		b := Generate(k, 5, 0.001, 42)
		if len(a.SamplesV) != len(b.SamplesV) {
			t.Fatalf("%v: lengths differ", k)
		}
		for i := range a.SamplesV {
			if a.SamplesV[i] != b.SamplesV[i] {
				t.Fatalf("%v: sample %d differs: %g vs %g", k, i, a.SamplesV[i], b.SamplesV[i])
			}
		}
	}
}

func TestVoltageAtInterpolation(t *testing.T) {
	tr := &Trace{SamplesV: []float64{0, 2, 4}, PeriodS: 1}
	if got := tr.VoltageAt(0.5); got != 1 {
		t.Errorf("V(0.5) = %g, want 1", got)
	}
	if got := tr.VoltageAt(1); got != 2 {
		t.Errorf("V(1) = %g, want 2", got)
	}
	// cyclic wrap: t=2.5 is halfway from sample 2 (4 V) back to sample 0 (0 V)
	if got := tr.VoltageAt(2.5); got != 2 {
		t.Errorf("V(2.5) wrap = %g, want 2", got)
	}
	if got := tr.VoltageAt(3.0); got != 0 {
		t.Errorf("V(3) wrap = %g, want 0", got)
	}
}

func TestVoltageAtDegenerate(t *testing.T) {
	empty := &Trace{}
	if got := empty.VoltageAt(1); got != 0 {
		t.Errorf("empty trace voltage = %g", got)
	}
	single := &Trace{SamplesV: []float64{3.3}, PeriodS: 1}
	if got := single.VoltageAt(99); got != 3.3 {
		t.Errorf("single-sample trace voltage = %g", got)
	}
}

func TestConstant(t *testing.T) {
	tr := Constant(3.0, 1, 0.01)
	if tr.Duration() != 1.0 {
		t.Errorf("duration = %g, want 1", tr.Duration())
	}
	for _, ts := range []float64{0, 0.123, 0.5, 0.99} {
		if got := tr.VoltageAt(ts); got != 3.0 {
			t.Errorf("V(%g) = %g, want 3", ts, got)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := Generate(Ramp, 1, 0.01, 7)
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "ramp")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.SamplesV) != len(orig.SamplesV) {
		t.Fatalf("length %d, want %d", len(back.SamplesV), len(orig.SamplesV))
	}
	if math.Abs(back.PeriodS-orig.PeriodS) > 1e-12 {
		t.Fatalf("period %g, want %g", back.PeriodS, orig.PeriodS)
	}
	for i := range orig.SamplesV {
		if back.SamplesV[i] != orig.SamplesV[i] {
			t.Fatalf("sample %d: %g != %g", i, back.SamplesV[i], orig.SamplesV[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
		// line is the 1-based CSV line a *ParseError must name; 0 means
		// any error type is acceptable (structural, not row-level).
		line int
	}{
		{"too short", "time_s,voltage_v\n0,1\n", 0},
		{"bad time", "time_s,voltage_v\nx,1\n0.1,2\n", 2},
		{"bad voltage", "time_s,voltage_v\n0,x\n0.1,2\n", 2},
		{"ragged row", "time_s,voltage_v\n0,1\n0.1,2,3\n", 3},
		{"missing field", "time_s,voltage_v\n0,1\n0.1\n", 3},
		{"nan voltage", "time_s,voltage_v\n0,1\n0.1,NaN\n", 3},
		{"inf voltage", "time_s,voltage_v\n0,1\n0.1,+Inf\n", 3},
		{"negative voltage", "time_s,voltage_v\n0,1\n0.1,-0.5\n", 3},
		{"nan time", "time_s,voltage_v\n0,1\nNaN,2\n", 3},
		{"inf time", "time_s,voltage_v\n0,1\nInf,2\n", 3},
		{"repeated time", "time_s,voltage_v\n0,1\n0,2\n0.1,3\n", 3},
		{"backwards time", "time_s,voltage_v\n0,1\n0.2,2\n0.1,3\n", 4},
		{"infinite period", "t,v\n-1e308,1\n1e308,1\n", 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(c.data), "t")
			if err == nil {
				t.Fatal("expected error")
			}
			if c.line == 0 {
				return
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v is not a *ParseError", err)
			}
			if pe.Line != c.line {
				t.Fatalf("error names line %d, want %d: %v", pe.Line, c.line, pe)
			}
		})
	}
}

// FuzzReadCSV: whatever the bytes, ReadCSV either fails or returns a
// trace the harvester can be driven with — at least two samples, each a
// finite non-negative voltage, and a finite positive sample period.
func FuzzReadCSV(f *testing.F) {
	f.Add("time_s,voltage_v\n0,1\n0.1,2\n")
	f.Add("t,v\n0,0\n1e-9,3.3\n2e-9,0\n")
	f.Add("t,v\n-1e308,1\n1e308,1\n")
	f.Add("t,v\n0,1\n0.1,2,3\n")
	var buf bytes.Buffer
	if err := Generate(Spikes, 0.01, 0.001, 1).WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Fuzz(func(t *testing.T, data string) {
		tr, err := ReadCSV(strings.NewReader(data), "fuzz")
		if err != nil {
			return
		}
		if len(tr.SamplesV) < 2 {
			t.Fatalf("accepted a trace of %d samples", len(tr.SamplesV))
		}
		if math.IsNaN(tr.PeriodS) || math.IsInf(tr.PeriodS, 0) || tr.PeriodS <= 0 {
			t.Fatalf("accepted sample period %g", tr.PeriodS)
		}
		for i, v := range tr.SamplesV {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("accepted sample %d = %g", i, v)
			}
		}
	})
}

// TestParseErrorUnwrap: the strconv cause stays reachable for callers
// that want to distinguish syntax from semantics.
func TestParseErrorUnwrap(t *testing.T) {
	_, err := ReadCSV(strings.NewReader("time_s,voltage_v\nbogus,1\n0.1,2\n"), "t")
	var ne *strconv.NumError
	if !errors.As(err, &ne) {
		t.Fatalf("parse cause lost: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if Spikes.String() != "spikes" || Ramp.String() != "ramp" || MultiPeak.String() != "multipeak" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(Kind(42).String(), "42") {
		t.Error("unknown kind should include value")
	}
	if len(Kinds()) != 3 {
		t.Error("three kinds expected")
	}
}
