package serve

// The float conversions against strconv, their reference: the decoder's
// number path must yield the bits and the error strconv.ParseFloat
// yields for every JSON number and reject everything else; appendFloat
// must write the bytes encoding/json writes for every finite float64.

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// jsonNumber is the JSON number grammar (RFC 8259 §6).
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// appendFloatStrconv is the encoding/json float64 encoder appendFloat
// replaced: strconv.AppendFloat in 'f' or 'e' layout, then the e-09 to
// e-9 fix-up.
func appendFloatStrconv(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// decodeFloat runs the decoder's number path on one token; it accepts
// only a token that is a whole JSON number.
func decodeFloat(tok string) (float64, error) {
	d := &decoder{b: []byte(tok)}
	f, err := d.float()
	if err == nil && d.i != len(tok) {
		err = d.errorf("trailing bytes after the number")
	}
	return f, err
}

// checkParseFloat holds the decoder's number path to strconv on one
// token: JSON numbers convert to the same bits, or fail with
// strconv's error in the message; anything else is rejected.
func checkParseFloat(t *testing.T, tok string) {
	t.Helper()
	got, gotErr := decodeFloat(tok)
	if !jsonNumber.MatchString(tok) {
		if gotErr == nil {
			t.Fatalf("%q is not a JSON number but decoded to %v", tok, got)
		}
		return
	}
	want, wantErr := strconv.ParseFloat(tok, 64)
	switch {
	case wantErr != nil:
		if gotErr == nil || !strings.Contains(gotErr.Error(), wantErr.Error()) {
			t.Fatalf("%q: err = %v, want one carrying %q", tok, gotErr, wantErr)
		}
	case gotErr != nil:
		t.Fatalf("%q: err = %v, strconv gives %v", tok, gotErr, want)
	case math.Float64bits(got) != math.Float64bits(want):
		t.Fatalf("%q: got %v (%#016x), strconv gives %v (%#016x)", tok, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkAppendFloat holds appendFloat to encoding/json's encoder on one
// finite value, and reads the text back through the decoder.
func checkAppendFloat(t *testing.T, f float64) {
	t.Helper()
	prefix := []byte("x,")
	got := appendFloat(prefix, f)[len(prefix):]
	want := appendFloatStrconv(nil, f)
	if !bytes.Equal(got, want) {
		t.Fatalf("%v (%#016x): appendFloat wrote %q, encoding/json writes %q", f, math.Float64bits(f), got, want)
	}
	back, err := decodeFloat(string(got))
	if err != nil || math.Float64bits(back) != math.Float64bits(f) {
		t.Fatalf("%q read back as %v (err %v), want %v", got, back, err, f)
	}
}

// floatTraps are the numbers where a conversion most easily departs
// from strconv.
func floatTraps() []string {
	return []string{
		// Signed zeros, in every spelling.
		"0", "-0", "0.0", "-0.0", "0e0", "-0e-5", "0.000e999", "-0E+999",
		// Subnormals and the normal boundary.
		"5e-324", "4.9406564584124654e-324", "2e-324", "3e-324", "1e-400",
		"2.2250738585072009e-308", "2.2250738585072011e-308", "2.2250738585072014e-308",
		"-2.2250738585072012e-308",
		// 2^53 ± 1: the last exact integers and the first halfway case.
		"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740994",
		"-9007199254740993", "9007199254740993e1", "4503599627370497.5",
		// Halfway cases between neighbouring doubles.
		"1.00000000000000011102230246251565404236316680908203125",
		"1.00000000000000011102230246251565404236316680908203124",
		"1.00000000000000011102230246251565404236316680908203126",
		"0.1000000000000000055511151231257827021181583404541015625",
		"2.50000000000000044408920985006261616945266723632812500",
		// 19-, 20- and 800-digit mantissas.
		"1234567890123456789", "12345678901234567890", "9999999999999999999",
		"18446744073709551615", "18446744073709551616", "1.2345678901234567890",
		"0.00000000000000000001234567890123456789012",
		"1" + strings.Repeat("0", 799), "1." + strings.Repeat("0", 798) + "1",
		"9." + strings.Repeat("9", 798), "0." + strings.Repeat("0", 400) + "1",
		// The layout switches of the encoder and their neighbours.
		"1e-7", "-1e-7", "1e-6", "9.99999e-7", "1e21", "-1e21", "1e22", "1e23",
		"9.999999999999999e20", "999999999999999900000", "1000000000000000000000",
		// The float64 range and beyond it.
		"1.7976931348623157e308", "-1.7976931348623157e308", "1.7976931348623158e308",
		"1.7976931348623159e308", "1e308", "1e309", "1e400", "-1e400", "1e99999", "1e-99999",
		// Clinger's bounds.
		"1e22", "1e23", "123e20", "4503599627370495e22", "4503599627370496e-22",
		"1e-22", "1e-23", "1e15", "1000000000000000e22",
		// Exponent spellings, and text that is not a JSON number.
		"1E5", "1e+5", "1e-5", "1.5E-05",
		"", "-", "+1", ".5", "1.", "01", "-01", "1e", "1e+", "1.e5", "0x10",
		"Inf", "NaN", "1_0", " 1", "1 ", "--1", "1e5.5", "1.5.5",
	}
}

func TestParseFloatTraps(t *testing.T) {
	for _, tok := range floatTraps() {
		checkParseFloat(t, tok)
	}
}

func TestAppendFloatTraps(t *testing.T) {
	for _, tok := range floatTraps() {
		f, err := strconv.ParseFloat(tok, 64)
		if err == nil && jsonNumber.MatchString(tok) {
			checkAppendFloat(t, f)
		}
	}
	for _, f := range []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, math.SmallestNonzeroFloat64 * 3,
		math.Float64frombits(1<<52 - 1), math.Float64frombits(1 << 52), math.Float64frombits(1<<52 + 1),
		1 << 53, 1<<53 + 2, 1 << 54, 1<<63 + 1<<11, 123456789012345678, 0.3, 2.5, 1.5e300, 7e22,
		math.MaxFloat64, -math.MaxFloat64, math.MaxFloat32, math.SmallestNonzeroFloat32,
	} {
		checkAppendFloat(t, f)
	}
}

// Each input class the fast paths decline goes to strconv.ParseFloat and
// still matches it; traffic-shaped numbers never do.
func TestParseFloatFallbacks(t *testing.T) {
	classes := map[string][]string{
		"truncated mantissa":       {"12345678901234567891", "1.00000000000000011102230246251565404236316680908203125"},
		"exponent outside table":   {"1e-400", "123e-360", "1e400"},
		"subnormal result":         {"5e-324", "2.2250738585072009e-308"},
		"overflowing result":       {"1.7976931348623159e308", "1e309"},
		"undecided halfway result": {"9007199254740993", "-9007199254740997"},
	}
	for class, toks := range classes {
		for _, tok := range toks {
			man, exp10, neg, trunc, end, msg := scanNumber([]byte(tok), 0)
			if msg != "" || end != len(tok) {
				t.Fatalf("%s %q: scan error %q at %d", class, tok, msg, end)
			}
			if !trunc {
				if _, ok := clinger(man, exp10, neg); ok {
					t.Errorf("%s %q: Clinger's path took it", class, tok)
				}
				if _, ok := eiselLemire(man, exp10, neg); ok {
					t.Errorf("%s %q: Eisel–Lemire took it", class, tok)
				}
				if _, ok := dyadic(man, exp10, neg); ok {
					t.Errorf("%s %q: the dyadic path took it", class, tok)
				}
			}
			checkParseFloat(t, tok)
		}
	}

	body, _ := benchRequest(t)
	var q Request
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	slow := 0
	for _, v := range q.Data {
		tok := strconv.AppendFloat(nil, v, 'f', -1, 64)
		man, exp10, neg, trunc, _, _ := scanNumber(tok, 0)
		_, ok1 := clinger(man, exp10, neg)
		_, ok2 := eiselLemire(man, exp10, neg)
		_, ok3 := dyadic(man, exp10, neg)
		if trunc || !(ok1 || ok2 || ok3) {
			slow++
		}
	}
	if slow != 0 {
		t.Errorf("%d of %d bench payload numbers took the strconv fallback", slow, len(q.Data))
	}
}

// A strided sweep of float32 bit patterns, plus every float32 near a
// power of ten or of two, through both directions: the response's
// samples, and the requests clients marshal from float32 data.
func TestFloat32SweepMatchesStrconv(t *testing.T) {
	check := func(f32 float32) {
		if math.IsInf(float64(f32), 0) || math.IsNaN(float64(f32)) {
			return
		}
		f := float64(f32)
		checkAppendFloat(t, f)
		checkParseFloat(t, string(appendFloatStrconv(nil, f)))
	}
	step := uint32(65537)
	if testing.Short() {
		step = 1<<20 + 7
	}
	for b := uint64(0); b < 1<<32; b += uint64(step) {
		check(math.Float32frombits(uint32(b)))
	}
	near := func(f32 float32) {
		b := math.Float32bits(f32)
		for d := uint32(0); d <= 16; d++ {
			check(math.Float32frombits(b + d))
			check(math.Float32frombits(b - d))
		}
	}
	for k := -45; k <= 38; k++ {
		near(float32(math.Pow(10, float64(k))))
	}
	for e := -149; e <= 127; e++ {
		near(float32(math.Ldexp(1, e)))
	}
}

// Random finite float64 bit patterns, and normal samples of several
// scales as the transforms produce them.
func TestFloat64RandomMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for range 20000 {
		f := math.Float64frombits(rng.Uint64())
		if math.IsInf(f, 0) || math.IsNaN(f) {
			continue
		}
		checkAppendFloat(t, f)
		checkParseFloat(t, string(appendFloatStrconv(nil, f)))
		checkParseFloat(t, strconv.FormatFloat(f, 'e', rng.Intn(25), 64))
	}
	for range 20000 {
		f := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		checkAppendFloat(t, f)
		checkParseFloat(t, strconv.FormatFloat(f, 'g', rng.Intn(20)+1, 64))
	}
}

func FuzzParseFloatMatchesStrconv(f *testing.F) {
	for _, tok := range floatTraps() {
		f.Add(tok)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		checkParseFloat(t, tok)
	})
}

func FuzzAppendFloatMatchesStrconv(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 5e-324, 1e-7, 0.1, 1, 9.999999999999999e20, 1e21, math.MaxFloat64} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return
		}
		checkAppendFloat(t, v)
	})
}

// The bench request's numbers, as the microbenchmarks below convert
// them one at a time.
func benchFloats(b *testing.B) ([]float64, [][]byte) {
	body, _ := benchRequest(b)
	var q Request
	if err := json.Unmarshal(body, &q); err != nil {
		b.Fatal(err)
	}
	toks := make([][]byte, len(q.Data))
	for i, v := range q.Data {
		toks[i] = appendFloatStrconv(nil, v)
	}
	return q.Data, toks
}

func BenchmarkParseFloat(b *testing.B) {
	_, toks := benchFloats(b)
	d := &decoder{}
	var sum float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tok := range toks {
			d.b, d.i = tok, 0
			v, err := d.float()
			if err != nil {
				b.Fatal(err)
			}
			sum += v
		}
	}
	benchSink = sum
}

func BenchmarkAppendFloat(b *testing.B) {
	vals, _ := benchFloats(b)
	buf := make([]byte, 0, 32*len(vals))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, v := range vals {
			buf = appendFloat(buf, v)
		}
	}
	benchSink = len(buf)
}
