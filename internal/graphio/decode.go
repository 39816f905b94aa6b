package graphio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ReadJSON decodes and validates a document in one streaming pass over a
// fixed read buffer, filling the Document directly: no copy of the whole
// input, and no reflection except to unquote a string that is not plain
// ASCII.
//
// The accepted grammar is the JSON form WriteJSON and WriteJSONStream
// produce, decoded exactly as encoding/json would decode it into a
// Document, with four strict exceptions: keys must match a field name
// exactly (no unknown keys, no case folding), no key may repeat within an
// object, every coords and pairs entry must have exactly two elements,
// and nothing but whitespace may follow the document. A null value
// leaves its field at the zero value, as in encoding/json.
//
// Malformed JSON, input outside that grammar, and documents violating
// the structural invariants (see Document.Validate) all come back as a
// *ValidationError wrapping ErrInvalid; a failure of r itself comes back
// wrapped as is. ReadJSON never panics, whatever the input.
func ReadJSON(r io.Reader) (Document, error) {
	d := decoder{r: r, buf: make([]byte, 0, 64<<10)}
	doc, err := d.document()
	if d.rerr != nil && d.rerr != io.EOF {
		return Document{}, fmt.Errorf("graphio: read json: %w", d.rerr)
	}
	if err != nil {
		return Document{}, err
	}
	if err := doc.Validate(); err != nil {
		return Document{}, err
	}
	return doc, nil
}

// The member names of a document and of one edge record, indexed by the
// bit each sets in an object's seen-keys mask.
var (
	docKeys  = []string{"nodes", "coords", "labels", "edges", "pairs", "failure_threshold", "budget"}
	edgeKeys = []string{"u", "v", "p_fail"}
)

// document decodes the top-level object.
func (d *decoder) document() (doc Document, err error) {
	err = d.object(path{idx: -1}, docKeys, func(k int) (err error) {
		p := path{array: docKeys[k], idx: -1}
		switch docKeys[k] {
		case "nodes":
			v, err := d.intValue(p, strconv.IntSize)
			doc.Nodes = int(v)
			return err
		case "coords":
			return array(d, p, &doc.Coords, func(i int) (err error) {
				doc.Coords = append(doc.Coords, [2]float64{})
				c := &doc.Coords[i]
				return d.tuple(path{array: "coords", idx: i}, func(j int) (err error) {
					c[j], err = d.floatValue(path{array: "coords", idx: i})
					return err
				})
			})
		case "labels":
			return array(d, p, &doc.Labels, func(i int) error {
				s, err := d.label(path{array: "labels", idx: i})
				doc.Labels = append(doc.Labels, s)
				return err
			})
		case "edges":
			return array(d, p, &doc.Edges, func(i int) error {
				doc.Edges = append(doc.Edges, EdgeRecord{})
				return d.edge(i, &doc.Edges[i])
			})
		case "pairs":
			return array(d, p, &doc.Pairs, func(i int) error {
				doc.Pairs = append(doc.Pairs, [2]int32{})
				pr := &doc.Pairs[i]
				return d.tuple(path{array: "pairs", idx: i}, func(j int) error {
					v, err := d.intValue(path{array: "pairs", idx: i}, 32)
					pr[j] = int32(v)
					return err
				})
			})
		case "failure_threshold":
			doc.FailureThreshold, err = d.floatValue(p)
			return err
		default: // "budget"
			v, err := d.intValue(p, strconv.IntSize)
			doc.Budget = int(v)
			return err
		}
	})
	if err != nil {
		return Document{}, err
	}
	if c := d.next(); c != 0 || d.pos < len(d.buf) {
		return Document{}, d.errorf(path{idx: -1}, "trailing data after the document")
	}
	return doc, nil
}

// edge decodes edges[i] into rec.
func (d *decoder) edge(i int, rec *EdgeRecord) error {
	return d.object(path{array: "edges", idx: i}, edgeKeys, func(k int) (err error) {
		p := path{array: "edges", idx: i, key: edgeKeys[k]}
		var v int64
		switch k {
		case 0:
			v, err = d.intValue(p, 32)
			rec.U = int32(v)
		case 1:
			v, err = d.intValue(p, 32)
			rec.V = int32(v)
		default:
			rec.Fail, err = d.floatValue(p)
		}
		return err
	})
}

// path names the field a decode error is about, e.g. "edges[3].u". It is
// formatted only when an error is reported.
type path struct {
	array string // top-level key; "" for the document itself
	idx   int    // element of array, or -1
	key   string // member of that element, or ""
}

// member is the path of the object member name within p.
func (p path) member(name string) path {
	if p.array == "" {
		return path{array: name, idx: -1}
	}
	p.key = name
	return p
}

func (p path) String() string {
	s := p.array
	if s == "" {
		s = "document"
	}
	if p.idx >= 0 {
		s += "[" + strconv.Itoa(p.idx) + "]"
	}
	if p.key != "" {
		s += "." + p.key
	}
	return s
}

// decoder is a cursor over r through a fixed buffer. Its methods consume
// one JSON construct each and report errors as *ValidationError naming
// the field being decoded.
type decoder struct {
	r    io.Reader
	buf  []byte // buf[pos:] is read from r but not yet consumed
	pos  int
	off  int64  // input offset of buf[0]
	rerr error  // the error that ended reading from r
	lit  []byte // a number or string copied out of buf, e.g. across a refill
}

// fill replaces the fully consumed buffer with the next bytes of r and
// reports whether any arrived.
func (d *decoder) fill() bool {
	for d.rerr == nil {
		d.off += int64(len(d.buf))
		n, err := d.r.Read(d.buf[:cap(d.buf)])
		d.buf, d.pos, d.rerr = d.buf[:n], 0, err
		if n > 0 {
			return true
		}
	}
	return false
}

// readByte consumes one byte; ok is false at the end of the input.
func (d *decoder) readByte() (c byte, ok bool) {
	if d.pos == len(d.buf) && !d.fill() {
		return 0, false
	}
	c = d.buf[d.pos]
	d.pos++
	return c, true
}

// next skips whitespace and returns the byte after it without consuming
// it, or 0 at the end of the input.
func (d *decoder) next() byte {
	for {
		for ; d.pos < len(d.buf); d.pos++ {
			switch c := d.buf[d.pos]; c {
			case ' ', '\t', '\n', '\r':
			default:
				return c
			}
		}
		if !d.fill() {
			return 0
		}
	}
}

func (d *decoder) errorf(p path, format string, args ...any) error {
	return &ValidationError{Format: "json", Field: p.String(), Msg: fmt.Sprintf(format, args...)}
}

// unexpected reports the byte at the cursor (after whitespace) where want
// was expected.
func (d *decoder) unexpected(p path, want string) error {
	c := d.next()
	if c == 0 && d.pos == len(d.buf) {
		return d.errorf(p, "unexpected end of input, want %s", want)
	}
	return d.errorf(p, "unexpected %q at offset %d, want %s", c, d.off+int64(d.pos), want)
}

// null consumes a null literal if one is at the cursor.
func (d *decoder) null(p path) (bool, error) {
	if d.next() != 'n' {
		return false, nil
	}
	for i := 0; i < len("null"); i++ {
		if c, ok := d.readByte(); !ok || c != "null"[i] {
			return true, d.errorf(p, "malformed literal at offset %d", d.off+int64(d.pos))
		}
	}
	return true, nil
}

// object decodes an object whose keys must be members of keys, each at
// most once, calling member with the key's index once its colon is
// consumed.
func (d *decoder) object(p path, keys []string, member func(k int) error) error {
	if d.next() != '{' {
		return d.unexpected(p, "an object")
	}
	d.pos++
	if d.next() == '}' {
		d.pos++
		return nil
	}
	var seen uint
	for {
		if d.next() != '"' {
			return d.unexpected(p, "a key")
		}
		key, err := d.str(p)
		if err != nil {
			return err
		}
		k := 0
		for k < len(keys) && string(key) != keys[k] {
			k++
		}
		if k == len(keys) {
			kp := p.member(string(key))
			for _, name := range keys {
				if strings.EqualFold(string(key), name) {
					return d.errorf(kp, "unknown key (keys are case-sensitive; want %q)", name)
				}
			}
			return d.errorf(kp, "unknown key")
		}
		if seen&(1<<k) != 0 {
			return d.errorf(p.member(keys[k]), "duplicate key")
		}
		seen |= 1 << k
		if d.next() != ':' {
			return d.unexpected(p.member(keys[k]), "':'")
		}
		d.pos++
		if err := member(k); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.unexpected(p, "',' or '}'")
		}
	}
}

// array decodes an array, or null, into *s, calling elem to append each
// element. As in encoding/json, null leaves *s nil and [] makes it empty
// but non-nil.
func array[T any](d *decoder, p path, s *[]T, elem func(i int) error) error {
	if null, err := d.null(p); null || err != nil {
		return err
	}
	*s = []T{}
	_, err := d.elements(p, "an array", elem)
	return err
}

// tuple decodes a two-element array, or null, calling elem for each
// element index.
func (d *decoder) tuple(p path, elem func(j int) error) error {
	if null, err := d.null(p); null || err != nil {
		return err
	}
	n, err := d.elements(p, "a two-element array", func(j int) error {
		if j == 2 {
			return d.errorf(p, "want exactly 2 elements")
		}
		return elem(j)
	})
	if err == nil && n != 2 {
		return d.errorf(p, "want exactly 2 elements, got %d", n)
	}
	return err
}

// elements decodes the array at the cursor, calling elem for each
// element index, and returns the element count.
func (d *decoder) elements(p path, want string, elem func(i int) error) (int, error) {
	if d.next() != '[' {
		return 0, d.unexpected(p, want)
	}
	d.pos++
	if d.next() == ']' {
		d.pos++
		return 0, nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return i, err
		}
		switch d.next() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return i + 1, nil
		default:
			return i, d.unexpected(p, "',' or ']'")
		}
	}
}

// intValue decodes an integer that fits in bits, or null as 0.
func (d *decoder) intValue(p path, bits int) (int64, error) {
	lit, err := d.number(p, "an integer")
	if lit == nil || err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		return 0, d.errorf(p, "%s is not an int%d", lit, bits)
	}
	return v, nil
}

// floatValue decodes a finite float64, or null as 0.
func (d *decoder) floatValue(p path) (float64, error) {
	lit, err := d.number(p, "a number")
	if lit == nil || err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, d.errorf(p, "%s is not a float64", lit)
	}
	return v, nil
}

// number consumes a JSON number and returns its text, valid until the
// next read; nil with no error means the value was null.
func (d *decoder) number(p path, want string) ([]byte, error) {
	if null, err := d.null(p); null || err != nil {
		return nil, err
	}
	if c := d.next(); c != '-' && (c < '0' || c > '9') {
		return nil, d.unexpected(p, want)
	}
	start, end := d.pos, d.pos
	for end < len(d.buf) && isNumberByte(d.buf[end]) {
		end++
	}
	lit := d.buf[start:end]
	d.pos = end
	if end == len(d.buf) { // the number may go on in the next buffer
		d.lit = append(d.lit[:0], lit...)
		for d.fill() {
			for d.pos < len(d.buf) && isNumberByte(d.buf[d.pos]) {
				d.pos++
			}
			d.lit = append(d.lit, d.buf[:d.pos]...)
			if d.pos < len(d.buf) {
				break
			}
		}
		lit = d.lit
	}
	if !validNumber(lit) {
		return nil, d.errorf(p, "malformed number %q", lit)
	}
	return lit, nil
}

func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// validNumber reports whether b is a number in the JSON grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func validNumber(b []byte) bool {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return false
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = digits(i)
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		if j := digits(i + 1); j > i+1 {
			i = j
		} else {
			return false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := digits(i); j > i {
			i = j
		} else {
			return false
		}
	}
	return i == len(b)
}

// label decodes a string, or null as "".
func (d *decoder) label(p path) (string, error) {
	if null, err := d.null(p); null || err != nil {
		return "", err
	}
	if d.next() != '"' {
		return "", d.unexpected(p, "a string")
	}
	s, err := d.str(p)
	return string(s), err
}

// str consumes the string at the cursor and returns its value, valid
// until the next read. A plain string is its own value. Any other string
// is unquoted by encoding/json itself, so that escapes, surrogate pairs
// and invalid UTF-8 decode exactly as encoding/json decodes them.
func (d *decoder) str(p path) ([]byte, error) {
	d.pos++ // the opening quote
	if i := bytes.IndexByte(d.buf[d.pos:], '"'); i >= 0 && plain(d.buf[d.pos:d.pos+i]) {
		s := d.buf[d.pos : d.pos+i]
		d.pos += i + 1
		return s, nil
	}
	raw := append(d.lit[:0], '"')
	for escaped := false; ; {
		c, ok := d.readByte()
		if !ok {
			return nil, d.errorf(p, "unterminated string")
		}
		raw = append(raw, c)
		if c == '"' && !escaped {
			break
		}
		escaped = c == '\\' && !escaped
	}
	d.lit = raw
	if body := raw[1 : len(raw)-1]; plain(body) {
		return body, nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, d.errorf(p, "malformed string: %v", err)
	}
	return []byte(s), nil
}

// plain reports whether a string body is its own value: printable ASCII
// without escapes.
func plain(b []byte) bool {
	for _, c := range b {
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}
