package serve

// The hand codec against its reference, encoding/json: the decoder must
// accept exactly what json.Decoder accepted (with DisallowUnknownFields
// and the trailing-document check) and produce a deep-equal Request;
// the encoder must write exactly the bytes json.Encoder wrote for the
// same Response.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"xmtfft/internal/fft"
)

// decodeRequestStdlib is the encoding/json request decoder the hand
// codec replaced, kept as the reference it is held to.
func decodeRequestStdlib(r io.Reader) (*Request, error) {
	q, err := parseRequestStdlib(r)
	if err != nil {
		return nil, err
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// parseRequestStdlib is the reference decoder without validation, the
// counterpart of parseRequest.
func parseRequestStdlib(r io.Reader) (*Request, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var q Request
	if err := dec.Decode(&q); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, badRequest("request body exceeds %d bytes", maxErr.Limit)
		}
		return nil, badRequest("malformed request: %v", err)
	}
	// A second value after the document is a framing error.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, badRequest("trailing data after request document")
	}
	return &q, nil
}

// codecTraps are the documents where a hand decoder most easily departs
// from encoding/json: case folding, escapes, duplicate keys, nulls,
// integer literals, number grammar and framing.
func codecTraps() []string {
	const tail = `"dtype":"complex64","dir":"forward","data":[1,0,0,0]}`
	return []string{
		// Key matching: exact, then case-folded (ſ folds to s, K to k).
		`{"DIMS":[2],` + tail,
		`{"dimſ":[2],` + tail,
		`{"Dims":[2],"DTYPE":"complex64","Dir":"forward","DaTa":[1,0,0,0]}`,
		`{"dims":[2],"dtype":"complex64","dir":"forward","batch":{"HOW_MANY":1,"ſtride":1,"diſt":2},"data":[1,0,0,0]}`,
		`{"dimss":[2],` + tail,
		`{"d\u0069ms":[2],` + tail,
		`{"dim\u017f":[2],` + tail,
		`{"\u0064ims":[2],"dtype":"complex\u0036\u0034","dir":"for\/ward","data":[1,0,0,0]}`,
		// Escapes and surrogates in strings.
		`{"dims":[2],"dtype":"complex64","dir":"forward","norm":"\u0062yn","data":[1,0,0,0]}`,
		`{"dims":[2],"dtype":"\ud83d\ude00","dir":"forward","data":[1,0,0,0]}`,
		`{"dims":[2],"dtype":"\ud83d","dir":"forward","data":[1,0,0,0]}`,
		`{"dims":[2],"dtype":"\ude00\ud83d\ud83d\ude00x","dir":"forward","data":[1,0,0,0]}`,
		`{"dims":[2],"dtype":"\ud83d\u0041","dir":"forward","data":[1,0,0,0]}`,
		`{"dims":[2],"dtype":"\ud83d\uZZZZ","dir":"forward","data":[1,0,0,0]}`,
		`{"di\ud83d\ude00ms":[2],` + tail,
		`{"dims":[2],"dtype":"\b\f\n\r\t\"\\\/","dir":"forward","data":[1,0,0,0]}`,
		`{"dims":[2],"dtype":"\x","dir":"forward","data":[1,0,0,0]}`,
		`{"dims":[2],"dtype":"` + "\xff\xfe" + `","dir":"forward","data":[1,0,0,0]}`,
		`{"dims":[2],"dtype":"` + "com\tplex64" + `","dir":"forward","data":[1,0,0,0]}`,
		`{"dims":[2],"dtype":"é","dir":"forward","data":[1,0,0,0]}`,
		`{"dims":[2],"dtype":"complex64`,
		`{"dims":[2],"dtype":"complex64\`,
		// Duplicate keys update in place.
		`{"dims":[2],"dtype":"complex64","dir":"forward","batch":{"how_many":2},"batch":{"stride":1,"dist":2},"data":[1,0,0,0,0,0,1,0]}`,
		`{"dims":[2],"dtype":"complex64","dir":"forward","batch":{"how_many":2,"stride":1,"dist":2},"batch":null,"data":[1,0,0,0]}`,
		`{"dims":[2],"dtype":"complex64","dir":"forward","batch":{"how_many":2,"stride":1,"dist":2},"batch":{},"data":[1,0,0,0,0,0,1,0]}`,
		`{"dims":[2],"dtype":"complex64","dir":"forward","data":[9,9,9,9,9,9],"data":[1,null,null,0]}`,
		`{"dims":[2],"dtype":"complex64","dir":"forward","data":[9,9],"data":[1],"data":[null,null,3,4]}`,
		`{"dims":[2],"dtype":"complex64","dir":"forward","data":[9,9,9,9],"data":[],"data":[null,null,null,null]}`,
		`{"dims":[2],"dtype":"complex64","dir":"forward","data":[9,9,9,9],"data":null,"data":[null,2,null,4]}`,
		`{"dims":[4],"dims":[2],` + tail,
		`{"dims":[8,2],"dims":[null],` + tail,
		`{"dims":[2],"dims":null,` + tail,
		`{"dims":[2],"dtype":"complex128","dtype":"complex64","dtype":null,"dir":"forward","data":[1,0,0,0]}`,
		// null everywhere it may appear.
		`{"dims":[2],"dtype":"complex64","dir":"forward","norm":null,"batch":null,"data":[1,0,0,null]}`,
		`{"dims":[null],` + tail,
		`{"dims":[2],"dtype":"complex64","dir":"forward","batch":{"how_many":null,"stride":null,"dist":null},"data":[1,0,0,0]}`,
		`null`,
		` null `,
		`{}`,
		`nul`,
		`nullx`,
		`{"dims":nul}`,
		// Ints take only ParseInt-able literals.
		`{"dims":[2.0],` + tail,
		`{"dims":[2e0],` + tail,
		`{"dims":[-0],` + tail,
		`{"dims":[9223372036854775808],` + tail,
		`{"dims":[-9223372036854775808],` + tail,
		`{"dims":[2],"dtype":"complex64","dir":"forward","batch":{"how_many":1.0,"stride":1,"dist":2},"data":[1,0,0,0]}`,
		// Number grammar and float corner cases.
		`{"dims":[2],"dtype":"complex128","dir":"forward","data":[-0,0.0,-0.0e-0,1E+2]}`,
		`{"dims":[2],"dtype":"complex128","dir":"forward","data":[5e-324,1e-400,4.9e-324,2.2250738585072011e-308]}`,
		`{"dims":[2],"dtype":"complex128","dir":"forward","data":[1.7976931348623157e308,1.7976931348623159e308,0,0]}`,
		`{"dims":[2],"dtype":"complex128","dir":"forward","data":[0.1000000000000000055511151231257827021181583404541015625,1,2,3]}`,
		`{"dims":[2],"dtype":"complex128","dir":"forward","data":[01,0,0,0]}`,
		`{"dims":[2],"dtype":"complex128","dir":"forward","data":[+1,0,0,0]}`,
		`{"dims":[2],"dtype":"complex128","dir":"forward","data":[.5,0,0,0]}`,
		`{"dims":[2],"dtype":"complex128","dir":"forward","data":[1.,0,0,0]}`,
		`{"dims":[2],"dtype":"complex128","dir":"forward","data":[1e,0,0,0]}`,
		`{"dims":[2],"dtype":"complex128","dir":"forward","data":[1e+,0,0,0]}`,
		`{"dims":[2],"dtype":"complex128","dir":"forward","data":[-,0,0,0]}`,
		`{"dims":[2],"dtype":"complex128","dir":"forward","data":[0x10,0,0,0]}`,
		`{"dims":[2],"dtype":"complex128","dir":"forward","data":[Infinity,0,0,0]}`,
		`{"dims":[2],"dtype":"complex128","dir":"forward","data":[1,0,0,0,]}`,
		`{"dims":[2],"dtype":"complex128","dir":"forward","data":[,1,0,0,0]}`,
		`{"dims":[2],"dtype":"complex128","dir":"forward","data":[1 0,0,0]}`,
		`{"dims":[2],"dtype":"complex128","dir":"forward","data":[true,0,0,0]}`,
		`{"dims":[2],"dtype":"complex128","dir":"forward","data":[[1],0,0,0]}`,
		// Wrong value kinds.
		`{"dims":2,` + tail,
		`{"dims":"2",` + tail,
		`{"dims":[2],"dtype":5,"dir":"forward","data":[1,0,0,0]}`,
		`{"dims":[2],"dtype":"complex64","dir":"forward","batch":[1],"data":[1,0,0,0]}`,
		`{"dims":[2],"dtype":"complex64","dir":"forward","batch":true,"data":[1,0,0,0]}`,
		`{"dims":[2],"dtype":"complex64","dir":"forward","batch":{"how_many":1,"extra":1},"data":[1,0,0,0]}`,
		`{"dims":[2],"dtype":"complex64","dir":"forward","data":{"0":1}}`,
		`"text"`,
		`42`,
		`[]`,
		// Whitespace and framing: only JSON whitespace around the one
		// document.
		" \t\r\n{ \"dims\" : [ 2 ] , \"dtype\" : \"complex64\" , \"dir\" : \"forward\" , \"data\" : [ 1 , 0 , 0 , 0 ] } \t\r\n",
		`{"dims":[2],` + tail + "\v",
		`{"dims":[2],` + tail + "\u00a0",
		`{"dims":[2],` + tail + "\x00",
		`{"dims":[2],` + tail + `{}`,
		`{"dims":[2],` + tail + `null`,
		`{"dims":[2],` + tail + `}`,
		"\ufeff" + `{"dims":[2],` + tail,
		`{"dims":[2],"dtype":"complex64","dir":"forward","data":[1,0,0,0]`,
		`{"dims":[2] "dtype":"complex64","dir":"forward","data":[1,0,0,0]}`,
		`{"dims":[2],,"dtype":"complex64","dir":"forward","data":[1,0,0,0]}`,
		`{"dims":[2],"dtype":"complex64","dir":"forward","data":[1,0,0,0],}`,
		`{"dims"[2],` + tail,
		`{dims:[2],` + tail,
		`{'dims':[2],` + tail,
		`{"dims":[2],"dtype":"complex64","dir":"forward","data":[1,0,0,0]}` + "\n\n",
	}
}

// sameRequest is reflect.DeepEqual plus a bitwise check of the samples,
// which DeepEqual's float == would let differ in the sign of zero.
func sameRequest(a, b *Request) bool {
	if !reflect.DeepEqual(a, b) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// checkDecodeMatchesStdlib holds both the parse step and the full
// DecodeRequest to the reference on one document.
func checkDecodeMatchesStdlib(t *testing.T, doc []byte) {
	t.Helper()
	got, gotErr := parseRequest(doc)
	want, wantErr := parseRequestStdlib(bytes.NewReader(doc))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("parse of %q: hand codec err = %v, encoding/json err = %v", doc, gotErr, wantErr)
	}
	if gotErr == nil && !sameRequest(got, want) {
		t.Fatalf("parse of %q:\nhand codec    %+v (batch %+v)\nencoding/json %+v (batch %+v)", doc, got, got.Batch, want, want.Batch)
	}
	got, gotErr = DecodeRequest(bytes.NewReader(doc))
	want, wantErr = decodeRequestStdlib(bytes.NewReader(doc))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decode of %q: hand codec err = %v, encoding/json err = %v", doc, gotErr, wantErr)
	}
	if gotErr != nil {
		var reqErr *RequestError
		if !errors.As(gotErr, &reqErr) {
			t.Fatalf("decode of %q: error %v is not a *RequestError", doc, gotErr)
		}
		return
	}
	if !sameRequest(got, want) {
		t.Fatalf("decode of %q:\nhand codec    %+v\nencoding/json %+v", doc, got, want)
	}
}

func TestDecodeRequestMatchesStdlib(t *testing.T) {
	var docs []string
	for _, body := range malformedCorpus() {
		docs = append(docs, body)
	}
	docs = append(docs, validSeeds()...)
	docs = append(docs, codecTraps()...)
	accepted := 0
	for _, doc := range docs {
		checkDecodeMatchesStdlib(t, []byte(doc))
		if _, err := DecodeRequest(strings.NewReader(doc)); err == nil {
			accepted++
		}
	}
	// The traps must exercise the accepting path too, not only errors.
	if accepted < 20 {
		t.Fatalf("only %d of %d documents accepted; the traps lost their valid cases", accepted, len(docs))
	}
}

func FuzzDecodeRequestMatchesStdlib(f *testing.F) {
	for _, body := range malformedCorpus() {
		f.Add([]byte(body))
	}
	for _, body := range validSeeds() {
		f.Add([]byte(body))
	}
	for _, body := range codecTraps() {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkDecodeMatchesStdlib(t, doc)
	})
}

func TestDecodeRequestBodyLimit(t *testing.T) {
	doc := `{"dims":[2],"dtype":"complex64","dir":"forward","data":[1,0,0,0]}`
	for _, limit := range []int64{8, int64(len(doc)) - 1} {
		r := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(strings.NewReader(doc)), limit)
		_, err := decodeRequest(r, int64(len(doc)))
		var reqErr *RequestError
		if !errors.As(err, &reqErr) || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("limit %d: err = %v, want a *RequestError saying the body exceeds the limit", limit, err)
		}
	}
	r := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(strings.NewReader(doc)), int64(len(doc)))
	if _, err := decodeRequest(r, -1); err != nil {
		t.Errorf("body at the limit with unknown length: %v", err)
	}
}

// A body of commas must not size the samples slice beyond what a valid
// array of the same length could need (8 bytes per 2 body bytes).
func TestDecodeArrayPresizeBounded(t *testing.T) {
	body := []byte(`{"data":[` + strings.Repeat(",", 1<<20) + `]}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := parseRequest(body); err == nil {
		t.Fatal("array of commas accepted")
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*uint64(len(body))+1<<16 {
		t.Errorf("parsing a %d-byte body allocated %d bytes", len(body), grew)
	}
}

// encodeStdlib is what the server wrote before the hand encoder.
func encodeStdlib[C fft.Complex](q *Request, batched int, x []C) ([]byte, error) {
	data := make([]float64, 0, 2*len(x))
	for _, v := range x {
		c := complex128(v)
		data = append(data, real(c), imag(c))
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(&Response{Dims: q.Dims, Dtype: q.Dtype, Dir: q.Dir, Batched: batched, Data: data})
	return buf.Bytes(), err
}

func checkEncodeMatchesStdlib[C fft.Complex](t *testing.T, q *Request, batched int, x []C) {
	t.Helper()
	want, err := encodeStdlib(q, batched, x)
	if err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	prefix := []byte("prefix")
	got, err := appendResponse(prefix, q, batched, x)
	if err != nil {
		t.Fatalf("appendResponse: %v", err)
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(i-40, 0)
		t.Fatalf("%s batched=%d: output differs at byte %d\nhand codec    …%s\nencoding/json …%s",
			q.Dtype, batched, i, got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
	}
}

func TestAppendResponseMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edges64 := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308, math.SmallestNonzeroFloat64 * 3,
		1e-7, -1e-7, 9.99999e-7, 1e-6, -1e-6, 1.0000001e-6, 1e-9, 1.5e-10, 1e-100, 0.1, 1, -2.5, 123456.789,
		9.99e20, 9.999999999999999e20, 1e21, -1e21, 1.5e21, 1e22, 1e100,
		math.MaxFloat64, -math.MaxFloat64, math.MaxFloat32, -math.MaxFloat32,
	}
	edges32 := []float32{
		0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		1.1754942e-38, 1e-7, -1e-7, 1e-6, 9.99e20, 1e21, -1e21, 0.1, 1, 3.4e38,
		math.MaxFloat32, -math.MaxFloat32,
	}
	// randomExp draws a normal sample scaled by 10^k, k uniform in
	// [lo, hi).
	randomExp := func(lo, hi int) float64 {
		return rng.NormFloat64() * math.Pow(10, float64(lo+rng.Intn(hi-lo)))
	}

	x128 := make([]complex128, 0, len(edges64)+256)
	for i := 0; i+1 < len(edges64); i += 2 {
		x128 = append(x128, complex(edges64[i], edges64[i+1]), complex(edges64[i+1], edges64[i]))
	}
	for range 256 {
		x128 = append(x128, complex(randomExp(-320, 300), randomExp(-30, 30)))
	}
	x64 := make([]complex64, 0, len(edges32)+256)
	for i := 0; i+1 < len(edges32); i += 2 {
		x64 = append(x64, complex(edges32[i], edges32[i+1]), complex(edges32[i+1], edges32[i]))
	}
	for range 256 {
		x64 = append(x64, complex(float32(randomExp(-45, 37)), float32(randomExp(-10, 10))))
	}

	for _, batched := range []int{0, 1, 7} {
		for _, dims := range [][]int{{len(x128)}, {2, 3, 4}} {
			checkEncodeMatchesStdlib(t, &Request{Dims: dims, Dtype: dtypeC128, Dir: "forward"}, batched, x128)
			checkEncodeMatchesStdlib(t, &Request{Dims: dims, Dtype: dtypeC64, Dir: "inverse"}, batched, x64)
		}
	}
	checkEncodeMatchesStdlib(t, &Request{Dims: []int{1}, Dtype: dtypeC64, Dir: "forward"}, 1, []complex64{})
}

func TestAppendResponseRefusesNonFinite(t *testing.T) {
	q := &Request{Dims: []int{2}, Dtype: dtypeC128, Dir: "forward"}
	for _, v := range []complex128{complex(math.Inf(1), 0), complex(0, math.Inf(-1)), complex(math.NaN(), 0)} {
		x := []complex128{1, v}
		if _, err := encodeStdlib(q, 1, x); err == nil {
			t.Fatalf("reference encoder accepted %v", v)
		}
		_, err := appendResponse(nil, q, 1, x)
		var reqErr *RequestError
		if !errors.As(err, &reqErr) {
			t.Errorf("appendResponse(%v): err = %v, want a *RequestError", v, err)
		}
	}
}

// Finite inputs whose transform overflows the dtype are the client's
// 400, counted as such, never an empty 200.
func TestOverflowingOutputIs400(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer shutdownServer(t, srv)

	cases := []struct {
		dtype string
		data  []float64
	}{
		{dtypeC64, []float64{3e38, 0, 3e38, 0}},
		{dtypeC128, []float64{1.7e308, 0, 1.7e308, 0}},
	}
	for _, c := range cases {
		resp, _, eb := postJSON(t, ts, &Request{Dims: []int{2}, Dtype: c.dtype, Dir: "forward", Norm: "none", Data: c.data})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", c.dtype, resp.StatusCode)
		}
		if !strings.Contains(eb.Error, "overflows "+c.dtype) {
			t.Errorf("%s: error %q does not name the dtype overflow", c.dtype, eb.Error)
		}
	}
	exp := scrape(t, srv)
	if v, _ := exp.Value("xmtserve_requests_total", map[string]string{"route": "1d", "code": "400"}); v != 2 {
		t.Errorf("requests{route=1d,code=400} = %g, want 2", v)
	}
	if v, ok := exp.Value("xmtserve_requests_total", map[string]string{"route": "1d", "code": "200"}); ok && v != 0 {
		t.Errorf("requests{route=1d,code=200} = %g, want 0", v)
	}
}

// Every stage a request passes through is observed: queue only for
// pooled 1D requests, the others for each request.
func TestStageHistograms(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer shutdownServer(t, srv)

	for _, q := range []*Request{
		{Dims: []int{16}, Dtype: dtypeC64, Dir: "forward", Data: impulse(16)},
		{Dims: []int{4, 4}, Dtype: dtypeC128, Dir: "forward", Data: impulse(16)},
	} {
		if resp, _, eb := postJSON(t, ts, q); resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: status %d (%+v)", q.Dims, resp.StatusCode, eb)
		}
	}
	exp := scrape(t, srv)
	for stage, want := range map[string]float64{"decode": 2, "queue": 1, "compute": 2, "encode": 2} {
		labels := map[string]string{"stage": stage}
		if n, _ := exp.Value("xmtserve_stage_seconds_count", labels); n != want {
			t.Errorf("stage %s: %g observations, want %g", stage, n, want)
		}
		if sum, _ := exp.Value("xmtserve_stage_seconds_sum", labels); !(sum >= 0) {
			t.Errorf("stage %s: sum %g", stage, sum)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { srv.met.stageDecode.Observe(1e-4) }); allocs != 0 {
		t.Errorf("observing a stage allocates %v times", allocs)
	}
}

// benchRequest is the benchmark's request: n=1024 complex64 forward,
// float32-exact normal samples, marshalled as clients send it.
func benchRequest(tb testing.TB) ([]byte, []complex64) {
	const n = 1024
	rng := rand.New(rand.NewSource(1))
	x := make([]complex64, n)
	data := make([]float64, 2*n)
	for i := range x {
		re, im := float32(rng.NormFloat64()), float32(rng.NormFloat64())
		x[i] = complex(re, im)
		data[2*i], data[2*i+1] = float64(re), float64(im)
	}
	body, err := json.Marshal(&Request{Dims: []int{n}, Dtype: dtypeC64, Dir: "forward", Data: data})
	if err != nil {
		tb.Fatal(err)
	}
	return body, x
}

var benchSink any

func BenchmarkDecodeRequest(b *testing.B) {
	body, _ := benchRequest(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := DecodeRequest(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		benchSink = q
	}
}

func BenchmarkEncodeResponse(b *testing.B) {
	_, x := benchRequest(b)
	plan, err := fft.CachedPlan[complex64](len(x))
	if err != nil {
		b.Fatal(err)
	}
	if err := plan.Transform(x, fft.Forward); err != nil {
		b.Fatal(err)
	}
	q := &Request{Dims: []int{len(x)}, Dtype: dtypeC64, Dir: "forward"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := getBuffer(0)
		out, err := appendResponse(*buf, q, 1, x)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Discard.Write(out); err != nil {
			b.Fatal(err)
		}
		*buf = out
		putBuffer(buf)
	}
}
