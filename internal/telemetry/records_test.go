package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// stream builds a JSONL stream from events via the real encoder, so the
// tests exercise exactly what a sink would have written.
func stream(t *testing.T, events ...Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	for _, e := range events {
		s.Emit(e)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadRunRecordsExtractsOnlyRunKind(t *testing.T) {
	data := stream(t,
		RoundEvent{Algorithm: "greedy_sigma", Round: 0, Sigma: 3},
		RunRecord{Name: "greedy", Algorithm: "greedy_sigma", Seed: 7, Sigma: 3, WallMS: 1.5},
		SandwichEvent{Best: "sigma"},
		RunRecord{Name: "table1", Algorithm: "experiment", Sigma: -1},
	)
	recs, err := ReadRunRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Name != "greedy" || recs[0].Seed != 7 || recs[0].Sigma != 3 {
		t.Fatalf("first record mangled: %+v", recs[0])
	}
	if recs[1].Algorithm != "experiment" || recs[1].Sigma != -1 {
		t.Fatalf("second record mangled: %+v", recs[1])
	}
}

func TestReadRunRecordsEmptyStream(t *testing.T) {
	recs, err := ReadRunRecords(strings.NewReader("\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("got %d records from empty stream", len(recs))
	}
}

// TestRunRecordRetiredFieldAccepted keeps old streams readable: a run line
// from a binary that still wrote the retired "eval_mode" field passes both
// the validator and the reader, which ignore fields the schema dropped.
func TestRunRecordRetiredFieldAccepted(t *testing.T) {
	line := bytes.TrimSuffix(stream(t, RunRecord{Name: "greedy", Algorithm: "greedy_sigma", Sigma: 4}), []byte("}\n"))
	old := append(line, []byte(`,"eval_mode":"rebuild"}`+"\n")...)
	if _, err := ValidateJSONL(bytes.NewReader(old)); err != nil {
		t.Fatalf("ValidateJSONL rejected a record with eval_mode: %v", err)
	}
	recs, err := ReadRunRecords(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("ReadRunRecords rejected a record with eval_mode: %v", err)
	}
	if len(recs) != 1 || recs[0].Name != "greedy" || recs[0].Sigma != 4 {
		t.Fatalf("record with eval_mode decoded as %+v", recs)
	}
}

func TestReadRunRecordsRejectsWhatValidateRejects(t *testing.T) {
	good := stream(t, RunRecord{Name: "x", Algorithm: "greedy_sigma"})
	for name, mangle := range map[string]func([]byte) []byte{
		"truncated line":   func(b []byte) []byte { return b[:len(b)/2] },
		"not json":         func(b []byte) []byte { return append(b, []byte("not json\n")...) },
		"unknown kind":     func(b []byte) []byte { return append(b, []byte(`{"event":"mystery"}`+"\n")...) },
		"missing field":    func(b []byte) []byte { return append(b, []byte(`{"event":"run"}`+"\n")...) },
		"no discriminator": func(b []byte) []byte { return append(b, []byte(`{"sigma":3}`+"\n")...) },
		"counters not object": func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"counters":{`), []byte(`"counters":3,"x":{`), 1)
		},
	} {
		bad := mangle(append([]byte(nil), good...))
		if _, err := ReadRunRecords(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: ReadRunRecords accepted a stream ValidateJSONL rejects", name)
		}
		if _, err := ValidateJSONL(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: ValidateJSONL unexpectedly accepted the mangled stream", name)
		}
	}
}
