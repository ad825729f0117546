package fed

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"github.com/hpcsched/gensched/internal/durable"
	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/workload"
)

func wireRecords() []durable.Record {
	return []durable.Record{
		{Op: durable.OpSubmit, Now: 7.5, Job: workload.Job{ID: 42, Submit: 7.5, Runtime: 120, Estimate: 150, Cores: 8}},
		{Op: durable.OpComplete, Now: 127.5, ID: 42},
		{Op: durable.OpAdvance, Now: 200},
		{Op: durable.OpPolicy, Name: "L1", Expr: "log10(r)*n + 870*log10(s)"},
	}
}

func TestWireRecordRoundTrip(t *testing.T) {
	for _, rec := range wireRecords() {
		payload, err := durable.AppendRecord([]byte{MsgRecord}, &rec)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.Write(AppendFrame(nil, payload))
		got, err := ReadFrame(&buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := DecodeMsg(got, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || !reflect.DeepEqual(recs[0], rec) {
			t.Fatalf("round trip: got %+v want %+v", recs, rec)
		}
	}
}

func TestWireBatchRoundTrip(t *testing.T) {
	recs := wireRecords()
	payload, err := AppendBatchMsg(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(AppendFrame(nil, payload))
	got, err := ReadFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeMsg(got, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, recs) {
		t.Fatalf("batch round trip:\n got %+v\nwant %+v", out, recs)
	}
}

func TestWireRespRoundTrip(t *testing.T) {
	starts := []online.Start{
		{ID: 1, Time: 10, Wait: 2.5, Backfilled: false},
		{ID: 9, Time: 10, Wait: 0, Backfilled: true},
	}
	now, got, err := DecodeResp(AppendOKResp(nil, 321.25, starts), nil)
	if err != nil {
		t.Fatal(err)
	}
	if now != 321.25 || !reflect.DeepEqual(got, starts) {
		t.Fatalf("ok resp round trip: now=%g starts=%+v", now, got)
	}
	_, _, err = DecodeResp(AppendErrResp(nil, 409, false, "job ID 42 is already active"), nil)
	we, ok := err.(*WireError)
	if !ok || we.Code != 409 || we.Retryable || we.Msg != "job ID 42 is already active" {
		t.Fatalf("err resp round trip: %v", err)
	}
	_, _, err = DecodeResp(AppendErrResp(nil, 503, true, "shard 3 is quarantined"), nil)
	we, ok = err.(*WireError)
	if !ok || we.Code != 503 || !we.Retryable || we.Msg != "shard 3 is quarantined" {
		t.Fatalf("retryable err resp round trip: %v", err)
	}
}

// TestWireGoldenFrame freezes the wire format: a known record must
// produce these exact bytes, so any codec change that would break
// deployed peers (or the shared journal golden vectors) fails here
// first. Regenerate the constant ONLY for a deliberate, versioned
// format change.
func TestWireGoldenFrame(t *testing.T) {
	rec := durable.Record{Op: durable.OpComplete, Now: 127.5, ID: 42}
	payload, err := durable.AppendRecord([]byte{MsgRecord}, &rec)
	if err != nil {
		t.Fatal(err)
	}
	frame := AppendFrame(nil, payload)
	const want = "1200000001030000000000e05f402a00000000000000"
	if got := hex.EncodeToString(frame); got != want {
		t.Fatalf("golden frame changed:\n got %s\nwant %s", got, want)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty frame":      {0, 0, 0, 0},
		"oversized length": {0xff, 0xff, 0xff, 0xff},
		"truncated header": {1, 0},
		"truncated body":   {8, 0, 0, 0, 1, 2},
	}
	for name, raw := range cases {
		if _, err := ReadFrame(bytes.NewReader(raw), nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDecodeMsgRejectsGarbage(t *testing.T) {
	good, err := AppendBatchMsg(nil, wireRecords())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":            {},
		"unknown kind":     {0x7f, 1, 2, 3},
		"truncated count":  {MsgBatch, 1},
		"absurd count":     {MsgBatch, 0xff, 0xff, 0xff, 0xff, 0},
		"trailing bytes":   append(append([]byte{}, good...), 0),
		"truncated record": good[:len(good)-3],
	}
	for name, raw := range cases {
		if _, err := DecodeMsg(raw, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzDecodeMsg hammers the request decoder with mutated frames, seeded
// with the golden encodings. The decoder must never panic, and anything
// it accepts must re-encode and re-decode to the same records (the
// codec is its own oracle).
func FuzzDecodeMsg(f *testing.F) {
	for _, rec := range wireRecords() {
		payload, err := durable.AppendRecord([]byte{MsgRecord}, &rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	batch, err := AppendBatchMsg(nil, wireRecords())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(batch)
	f.Add([]byte{MsgBatch, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		recs, err := DecodeMsg(payload, nil)
		if err != nil {
			return
		}
		re, err := AppendBatchMsg(nil, recs)
		if err != nil {
			t.Fatalf("accepted records fail to re-encode: %v", err)
		}
		back, err := DecodeMsg(re, nil)
		if err != nil {
			t.Fatalf("re-encoded batch fails to decode: %v", err)
		}
		if len(back) != len(recs) || (len(recs) > 0 && !reflect.DeepEqual(back, recs)) {
			t.Fatalf("re-decode diverges:\n got %+v\nwant %+v", back, recs)
		}
	})
}

// FuzzDecodeResp is the same contract for the response decoder.
func FuzzDecodeResp(f *testing.F) {
	f.Add(AppendOKResp(nil, 1.5, []online.Start{{ID: 3, Time: 1.5, Wait: 0.5, Backfilled: true}}))
	f.Add(AppendErrResp(nil, 400, false, "bad"))
	f.Add(AppendErrResp(nil, 503, true, "quarantined"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		now, starts, err := DecodeResp(payload, nil)
		if err != nil {
			return
		}
		re := AppendOKResp(nil, now, starts)
		now2, starts2, err := DecodeResp(re, nil)
		if err != nil {
			t.Fatalf("re-encoded resp fails to decode: %v", err)
		}
		sameNow := now == now2 || (now != now && now2 != now2) // NaN survives
		if !sameNow || len(starts2) != len(starts) {
			t.Fatalf("re-decode diverges: %g/%d vs %g/%d", now, len(starts), now2, len(starts2))
		}
	})
}
