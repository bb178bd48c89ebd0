package serve

// Hand-written wire codec for the transform route. The decoder makes
// one pass over the body that both checks JSON syntax and fills a
// Request; the encoder appends a Response straight from the transformed
// samples. Neither uses reflection, and both are held to encoding/json
// as the reference (codec_test.go, the differential fuzz target):
//
//   - the decoder accepts exactly the documents
//     json.Decoder{DisallowUnknownFields} accepts as a Request followed
//     by nothing but whitespace, and yields a deep-equal Request — keys
//     match exactly and then case-folded, \u escapes and surrogate
//     pairs decode the same way, a duplicate key updates the field in
//     place (a second "batch" merges into the first, a second "data"
//     reuses its backing array), null leaves strings, ints and
//     elements alone and clears slices and pointers, and numbers convert
//     to the same bits (floatconv.go);
//   - the encoder writes the bytes json.NewEncoder(w).Encode(resp)
//     writes, trailing newline included, and refuses non-finite
//     samples as encoding/json does.

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"xmtfft/internal/fft"
)

// bufPool recycles request-body and response buffers. Buffers that
// grew past maxPooledBuffer are left to the GC, so one large request
// does not pin its memory for the life of the process.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBuffer is the largest buffer kept in bufPool, and the most
// the body buffer is presized to from a Content-Length the client
// declared: larger bodies grow only as their bytes arrive.
const maxPooledBuffer = 1 << 20

func getBuffer(size int) *[]byte {
	p := bufPool.Get().(*[]byte)
	if cap(*p) < size {
		*p = make([]byte, 0, size)
	}
	*p = (*p)[:0]
	return p
}

func putBuffer(p *[]byte) {
	if cap(*p) <= maxPooledBuffer {
		bufPool.Put(p)
	}
}

// decodeRequest reads the whole body into a buffer presized from
// sizeHint, its declared length (-1 if unknown), and decodes and
// validates it.
func decodeRequest(r io.Reader, sizeHint int64) (*Request, error) {
	buf := getBuffer(int(min(max(sizeHint, 0), maxPooledBuffer)) + 1)
	defer putBuffer(buf)
	body, err := readBody(r, *buf)
	*buf = body
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, badRequest("request body exceeds %d bytes", maxErr.Limit)
		}
		return nil, badRequest("malformed request: reading body: %v", err)
	}
	q, err := parseRequest(body)
	if err != nil {
		return nil, err
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// readBody appends everything r yields to b, growing b only when full
// (a buffer one byte longer than the body reads it without growing).
func readBody(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// Field names in declaration order; a key selects the first exact
// match, else the first case-folded match, as encoding/json does.
var (
	requestFields = []string{"dims", "dtype", "dir", "norm", "batch", "data"}
	batchFields   = []string{"how_many", "stride", "dist"}
)

// parseRequest decodes one JSON document into a Request without
// validating it. A top-level null yields the zero Request, as it does
// for encoding/json. The Request shares no memory with b.
func parseRequest(b []byte) (*Request, error) {
	d := &decoder{b: b}
	q := new(Request)
	d.skipSpace()
	if !d.null() {
		err := d.object(requestFields, func(field int) error {
			switch field {
			case 0:
				return decodeArray(d, &q.Dims)
			case 1:
				return d.stringField(&q.Dtype)
			case 2:
				return d.stringField(&q.Dir)
			case 3:
				return d.stringField(&q.Norm)
			case 4:
				return d.batch(&q.Batch)
			default:
				return decodeArray(d, &q.Data)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	d.skipSpace()
	if d.i < len(b) {
		return nil, badRequest("trailing data after request document")
	}
	return q, nil
}

// decoder is a cursor over one request body.
type decoder struct {
	b []byte
	i int
}

func (d *decoder) errorf(format string, args ...any) error {
	return badRequest("malformed request: "+format+" at offset %d", append(args, d.i)...)
}

// skipSpace steps over JSON whitespace.
func (d *decoder) skipSpace() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume steps over c if it is the next byte.
func (d *decoder) consume(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// null steps over a null literal if it is next.
func (d *decoder) null() bool {
	if d.i < len(d.b) && d.b[d.i] == 'n' && bytes.HasPrefix(d.b[d.i:], []byte("null")) {
		d.i += 4
		return true
	}
	return false
}

// object decodes the JSON object at the cursor. Each member's key
// selects an index into fields and member decodes the value; a key
// matching no field is an error (DisallowUnknownFields).
func (d *decoder) object(fields []string, member func(field int) error) error {
	if !d.consume('{') {
		return d.errorf("expected an object")
	}
	d.skipSpace()
	if d.consume('}') {
		return nil
	}
	for {
		d.skipSpace()
		key, err := d.str()
		if err != nil {
			return err
		}
		field := lookupField(key, fields)
		if field < 0 {
			return badRequest("malformed request: json: unknown field %q", key)
		}
		d.skipSpace()
		if !d.consume(':') {
			return d.errorf("expected ':' after object key")
		}
		d.skipSpace()
		if err := member(field); err != nil {
			return err
		}
		d.skipSpace()
		if d.consume(',') {
			continue
		}
		if d.consume('}') {
			return nil
		}
		return d.errorf("expected ',' or '}' after object member")
	}
}

func lookupField(key []byte, fields []string) int {
	for i, f := range fields {
		if string(key) == f {
			return i
		}
	}
	for i, f := range fields {
		if strings.EqualFold(string(key), f) {
			return i
		}
	}
	return -1
}

// batch decodes the batch member: null clears it, an object merges into
// the existing BatchSpec (allocating one if there is none).
func (d *decoder) batch(dst **BatchSpec) error {
	if d.null() {
		*dst = nil
		return nil
	}
	if d.i >= len(d.b) || d.b[d.i] != '{' {
		return d.errorf("batch must be an object")
	}
	if *dst == nil {
		*dst = new(BatchSpec)
	}
	b := *dst
	return d.object(batchFields, func(field int) error {
		switch field {
		case 0:
			return d.intField(&b.HowMany)
		case 1:
			return d.intField(&b.Stride)
		default:
			return d.intField(&b.Dist)
		}
	})
}

// intField decodes an int member; null leaves it unchanged.
func (d *decoder) intField(dst *int) error {
	if d.null() {
		return nil
	}
	v, err := d.int()
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

// stringField decodes a string member; null leaves it unchanged.
func (d *decoder) stringField(dst *string) error {
	if d.null() {
		return nil
	}
	s, err := d.str()
	if err != nil {
		return err
	}
	*dst = string(s)
	return nil
}

// decodeArray decodes a JSON array of numbers (each element may be
// null) into *dst with encoding/json's slice rules: elements land in
// the existing backing array, which grows only when full; null leaves
// an element unchanged; the slice is cut to the array's length; an
// empty array yields an empty non-nil slice; a null array yields nil.
func decodeArray[T int | float64](d *decoder, dst *[]T) error {
	if d.null() {
		*dst = nil
		return nil
	}
	if !d.consume('[') {
		return d.errorf("expected an array")
	}
	s := *dst
	if s == nil {
		// Size a fresh slice to one more than the commas before the
		// next ']' — the element count of an array of numbers — but no
		// more than an array of that many bytes can hold (a digit and a
		// comma per element), so a body of commas cannot inflate it.
		if end := bytes.IndexByte(d.b[d.i:], ']'); end > 0 {
			s = make([]T, 0, min(bytes.Count(d.b[d.i:d.i+end], []byte{','}), end/2)+1)
		}
	}
	i := 0
	d.skipSpace()
	if !d.consume(']') {
		for {
			d.skipSpace()
			if i == len(s) {
				if i < cap(s) {
					s = s[:i+1]
				} else {
					s = append(s, 0)
				}
			}
			if !d.null() {
				// Direct calls, not a func value, keep d on the stack.
				var err error
				switch p := any(&s[i]).(type) {
				case *int:
					*p, err = d.int()
				case *float64:
					*p, err = d.float()
				}
				if err != nil {
					return err
				}
			}
			i++
			d.skipSpace()
			if d.consume(',') {
				continue
			}
			if d.consume(']') {
				break
			}
			return d.errorf("expected ',' or ']' after array element")
		}
	}
	if i == 0 {
		s = []T{}
	}
	*dst = s[:i]
	return nil
}

// int decodes the JSON number at the cursor as encoding/json does for
// an int target: only an integer literal in range is accepted.
func (d *decoder) int() (int, error) {
	_, _, _, _, end, msg := scanNumber(d.b, d.i)
	if msg != "" {
		return 0, d.errorf("%s", msg)
	}
	tok := d.b[d.i:end]
	d.i = end
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return 0, d.errorf("%v", err)
	}
	return int(v), nil
}

// float decodes the JSON number at the cursor to the float64
// strconv.ParseFloat returns for it (floatconv.go), in one scan that
// checks the grammar and collects the digits.
func (d *decoder) float() (float64, error) {
	man, exp10, neg, trunc, end, msg := scanNumber(d.b, d.i)
	if msg != "" {
		return 0, d.errorf("%s", msg)
	}
	tok := d.b[d.i:end]
	d.i = end
	f, err := toFloat64(tok, man, exp10, neg, trunc)
	if err != nil {
		return 0, d.errorf("%v", err)
	}
	return f, nil
}

// str scans the JSON string at the cursor and returns its unquoted
// bytes — a subslice of the body when there is nothing to unescape.
// Invalid UTF-8 and unpaired surrogates become U+FFFD, as in
// encoding/json.
func (d *decoder) str() ([]byte, error) {
	if !d.consume('"') {
		return nil, d.errorf("expected a string")
	}
	b, i := d.b, d.i
	for i < len(b) && b[i] != '"' && b[i] != '\\' && b[i] >= ' ' && b[i] < utf8.RuneSelf {
		i++
	}
	if i < len(b) && b[i] == '"' {
		s := b[d.i:i]
		d.i = i + 1
		return s, nil
	}
	out := append([]byte(nil), b[d.i:i]...)
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return out, nil
		case c < ' ':
			d.i = i
			return nil, d.errorf("control character in string")
		case c == '\\':
			if r := getu4(b[i:]); r >= 0 {
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, getu4(b[i:])); dec != utf8.RuneError {
						i += 6
						r = dec
					} else {
						r = utf8.RuneError
					}
				}
				out = utf8.AppendRune(out, r)
				continue
			}
			var esc byte
			if i+1 < len(b) {
				esc = unescape(b[i+1])
			}
			if esc == 0 {
				d.i = i
				return nil, d.errorf("invalid escape in string")
			}
			out = append(out, esc)
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	d.i = i
	return nil, d.errorf("unterminated string")
}

// unescape maps the byte after a backslash to the byte it stands for,
// or 0 if the escape is invalid (\u is handled by getu4).
func unescape(c byte) byte {
	switch c {
	case '"', '\\', '/':
		return c
	case 'b':
		return '\b'
	case 'f':
		return '\f'
	case 'n':
		return '\n'
	case 'r':
		return '\r'
	case 't':
		return '\t'
	}
	return 0
}

// getu4 decodes a \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// appendResponse appends the Response for q's geometry, the pass size
// batched and the transformed samples x to b: the bytes
// json.NewEncoder(w).Encode(&Response{...}) writes for the same values.
// A non-finite sample — finite inputs that overflowed the dtype — is a
// *RequestError and leaves nothing usable in b. q must be validated:
// its Dims are non-empty and its Dtype and Dir are enum words, which
// need no escaping.
func appendResponse[C fft.Complex](b []byte, q *Request, batched int, x []C) ([]byte, error) {
	b = append(b, `{"dims":[`...)
	for i, v := range q.Dims {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, `],"dtype":"`...)
	b = append(b, q.Dtype...)
	b = append(b, `","dir":"`...)
	b = append(b, q.Dir...)
	b = append(b, '"')
	if batched != 0 {
		b = append(b, `,"batched":`...)
		b = strconv.AppendInt(b, int64(batched), 10)
	}
	b = append(b, `,"data":[`...)
	for i, v := range x {
		c := complex128(v)
		re, im := real(c), imag(c)
		if math.IsInf(re, 0) || math.IsNaN(re) || math.IsInf(im, 0) || math.IsNaN(im) {
			return b, badRequest("transform result overflows %s: element %d is %v", q.Dtype, i, v)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, re)
		b = append(b, ',')
		b = appendFloat(b, im)
	}
	return append(b, "]}\n"...), nil
}
