package graphio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// referenceReadJSON is the reflection decoder ReadJSON replaced, kept as
// the differential oracle: encoding/json decodes the first value of the
// input into a Document, then Validate runs.
func referenceReadJSON(data []byte) (Document, error) {
	var doc Document
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&doc); err != nil {
		return Document{}, err
	}
	if err := doc.Validate(); err != nil {
		return Document{}, err
	}
	return doc, nil
}

// strictGrammar reports whether data is one JSON value followed only by
// whitespace in which every object key is, exactly, a member of the
// Document or EdgeRecord wire form at its position and appears once,
// and every coords or pairs entry that is an array has two elements.
// Within it, ReadJSON must accept exactly what referenceReadJSON accepts.
func strictGrammar(data []byte) bool {
	members := map[string]map[string]string{
		"document": {"nodes": "", "coords": "tuples", "labels": "", "edges": "edges",
			"pairs": "tuples", "failure_threshold": "", "budget": ""},
		"edge": {"u": "", "v": "", "p_fail": ""},
	}
	elem := map[string]string{"tuples": "tuple", "edges": "edge"}
	dec := json.NewDecoder(bytes.NewReader(data))
	var value func(schema string) bool
	value = func(schema string) bool {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok {
		case json.Delim('{'):
			seen := map[string]bool{}
			for dec.More() {
				key, err := dec.Token()
				if err != nil {
					return false
				}
				child, ok := members[schema][key.(string)]
				if !ok || seen[key.(string)] || !value(child) {
					return false
				}
				seen[key.(string)] = true
			}
		case json.Delim('['):
			n := 0
			for ; dec.More(); n++ {
				if !value(elem[schema]) {
					return false
				}
			}
			if schema == "tuple" && n != 2 {
				return false
			}
		default:
			return true
		}
		_, err = dec.Token() // the closing delimiter
		return err == nil
	}
	if !value("document") {
		return false
	}
	_, err := dec.Token()
	return err == io.EOF
}

// FuzzReadDocument feeds arbitrary bytes to the JSON reader. The
// contract under hostile input is sharp: either a Document whose
// invariants all hold (it re-validates and builds a graph), or an error
// wrapping ErrInvalid — never a panic, never a silently malformed
// document. Differentially, against referenceReadJSON: whatever ReadJSON
// accepts, the reference accepts and decodes to an identical Document
// (strings, ±0 and nil-versus-empty slices included); whatever the
// reference accepts within strictGrammar, ReadJSON accepts. Decoding one
// byte per Read, which puts every token across a buffer refill, must
// give the same result.
func FuzzReadDocument(f *testing.F) {
	f.Add([]byte(`{"nodes":3,"edges":[{"u":0,"v":1,"p_fail":0.1}],"pairs":[[0,2]],"failure_threshold":0.2,"budget":1}`))
	f.Add([]byte(`{"nodes":0}`))
	f.Add([]byte(`{"nodes":-5,"edges":[]}`))
	f.Add([]byte(`{"nodes":2147483647}`))
	f.Add([]byte(`{"nodes":2,"edges":[{"u":0,"v":0,"p_fail":0}]}`))
	f.Add([]byte(`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":1.0}]}`))
	f.Add([]byte(`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":-0.5}]}`))
	f.Add([]byte(`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":0.1},{"u":1,"v":0,"p_fail":0.2}]}`))
	f.Add([]byte(`{"nodes":2,"edges":[{"u":0,"v":5,"p_fail":0.1}]}`))
	f.Add([]byte(`{"nodes":3,"coords":[[0,0]],"edges":[]}`))
	f.Add([]byte(`{"nodes":2,"labels":["a"],"edges":[]}`))
	f.Add([]byte(`{"nodes":2,"edges":[],"pairs":[[0,0]]}`))
	f.Add([]byte(`{"nodes":2,"edges":[],"pairs":[[0,1],[1,0]]}`))
	f.Add([]byte(`{"nodes":2,"edges":[],"failure_threshold":1.5}`))
	f.Add([]byte(`{"nodes":2,"edges":[],"budget":-3}`))
	f.Add([]byte(`{"nodes":2,"coords":[[1e999,0],[0,0]],"edges":[]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	for _, tc := range strictRejections {
		f.Add([]byte(tc.in))
	}
	f.Add([]byte(`{"nodes":2,"labels":["a\u00e9\ud83d\ude00","\ud800x\udc00\u0041\/\"\\\b\f\n\r\t"],"edges":null}`))
	f.Add([]byte("{\"nodes\":2,\"labels\":[\"\xff\xc3(\xed\xa0\x80\",null],\"edges\":[]}"))
	f.Add([]byte(`{"\u006eodes":2,"coords":[null,[-0,1E-2]],"edges":[{"u":1,"v":0,"p_fail":-0.0e+0}],"pairs":null} ` + "\t\r\n"))
	f.Add([]byte(`{"nodes":2,"edges":[{"u":0,"v":1,"p_fail":1e999}],"budget":1.0}`))
	f.Add([]byte(`{"nodes":2,"labels":["\\","\\\""],"edges":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := ReadJSON(bytes.NewReader(data))
		slow, serr := ReadJSON(iotest.OneByteReader(bytes.NewReader(data)))
		if fmt.Sprint(err) != fmt.Sprint(serr) || !identical(doc, slow) {
			t.Fatalf("one byte per Read changes the result: %v, %v", err, serr)
		}
		ref, rerr := referenceReadJSON(data)
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("ReadJSON error %v does not wrap ErrInvalid", err)
			}
			if rerr == nil && strictGrammar(data) {
				t.Fatalf("ReadJSON rejects a strict-grammar document encoding/json accepts: %v", err)
			}
			return
		}
		if rerr != nil {
			t.Fatalf("ReadJSON accepts what encoding/json rejects (%v)", rerr)
		}
		if !identical(doc, ref) {
			t.Fatalf("ReadJSON and encoding/json decode differently:\n got %#v\nwant %#v", doc, ref)
		}
		// An accepted document must satisfy its own invariants and build.
		if verr := doc.Validate(); verr != nil {
			t.Fatalf("accepted document fails Validate: %v", verr)
		}
		if _, gerr := doc.Graph(); gerr != nil {
			t.Fatalf("validated document fails Graph: %v", gerr)
		}
		if _, perr := doc.PairSet(); perr != nil {
			t.Fatalf("validated document fails PairSet: %v", perr)
		}
	})
}

// identical reports whether two documents are equal field for field,
// telling nil from empty slices (reflect.DeepEqual) and -0 from +0
// (fmt prints the sign).
func identical(a, b Document) bool {
	return reflect.DeepEqual(a, b) && fmt.Sprintf("%v", a) == fmt.Sprintf("%v", b)
}

// FuzzReadCostTable feeds arbitrary bytes to the cost-table reader: a
// table whose invariants all hold (it re-validates and prices lookups with
// positive values), or an error wrapping ErrInvalid — never a panic.
func FuzzReadCostTable(f *testing.F) {
	f.Add([]byte(`{"default":2.5,"costs":[{"u":0,"v":1,"cost":1.5},{"u":2,"v":3,"cost":0.25}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"default":0}`))
	f.Add([]byte(`{"default":-1}`))
	f.Add([]byte(`{"costs":[{"u":0,"v":0,"cost":1}]}`))
	f.Add([]byte(`{"costs":[{"u":-1,"v":2,"cost":1}]}`))
	f.Add([]byte(`{"costs":[{"u":0,"v":1,"cost":0}]}`))
	f.Add([]byte(`{"costs":[{"u":0,"v":1,"cost":-3}]}`))
	f.Add([]byte(`{"costs":[{"u":0,"v":1,"cost":1},{"u":1,"v":0,"cost":2}]}`))
	f.Add([]byte(`{"costs":[{"u":0,"v":999999999,"cost":1}]}`))
	f.Add([]byte(`{"default":1e308,"costs":[]}`))
	f.Add([]byte(`{"unknown_field":1}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		ct, err := ReadCostTable(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("ReadCostTable error %v does not wrap ErrInvalid", err)
			}
			return
		}
		if verr := ct.Validate(); verr != nil {
			t.Fatalf("accepted cost table fails Validate: %v", verr)
		}
		// Every lookup must price positive: listed pairs by their record,
		// unlisted pairs by the default (or unit).
		for _, rec := range ct.Costs {
			if c := ct.Cost(rec.U, rec.V); c != rec.Cost {
				t.Fatalf("Cost(%d,%d) = %v, want listed %v", rec.U, rec.V, c, rec.Cost)
			}
			if c := ct.Cost(rec.V, rec.U); c != rec.Cost {
				t.Fatalf("Cost(%d,%d) = %v, want listed %v (order-independent)", rec.V, rec.U, c, rec.Cost)
			}
		}
		if c := ct.Cost(0, 1<<30); c <= 0 {
			t.Fatalf("unlisted pair priced %v, want positive", c)
		}
	})
}

// FuzzReadEdgeList feeds arbitrary text to the edge-list reader: a valid
// graph or an ErrInvalid-wrapping error, never a panic.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1 0.5\n1 2 0.25\n")
	f.Add("0 1\n")
	f.Add("# comment\n\n0 1 0.1\n")
	f.Add("0 0 0.1\n")
	f.Add("-1 2 0.1\n")
	f.Add("0 1 NaN\n")
	f.Add("0 1 +Inf\n")
	f.Add("0 1 1.0\n")
	f.Add("0 1 -0.0001\n")
	f.Add("0 999999999 0.1\n")
	f.Add("0 1 0.1\n1 0 0.2\n")
	f.Add("0 1 0.1 extra\n")
	f.Add("x y z\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		g, err := ReadEdgeList(strings.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("ReadEdgeList error %v does not wrap ErrInvalid", err)
			}
			return
		}
		if g.N() <= 0 || g.N() > MaxNodes {
			t.Fatalf("accepted graph has n = %d", g.N())
		}
	})
}
