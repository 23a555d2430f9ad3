package replica

import (
	"bytes"
	"testing"

	"gamedb/internal/spatial"
	"gamedb/internal/wire"
)

// TestWireMsgRoundTrip pins every client-protocol message through the
// codec: encode, decode, compare fields.
func TestWireMsgRoundTrip(t *testing.T) {
	var e wire.Enc

	AppendUpdateMsg(&e, 300, 7, -2.5)
	d := wire.NewDec(e.Bytes(), nil)
	if got := DecodeUpdateMsg(d); got != (UpdateMsg{ID: 300, Field: 7, Val: -2.5}) {
		t.Fatalf("update round trip: %+v", got)
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("update left err=%v remaining=%d", d.Err(), d.Remaining())
	}

	e.Reset()
	AppendRemoveMsg(&e, 1<<40)
	d.Reset(e.Bytes())
	if got := DecodeRemoveMsg(d); got != 1<<40 || d.Err() != nil {
		t.Fatalf("remove round trip: id=%d err=%v", got, d.Err())
	}

	e.Reset()
	vals := []float64{1, -2, 3.75, 0}
	AppendSnapshotMsg(&e, 42, vals)
	d.Reset(e.Bytes())
	id, got := DecodeSnapshotMsg(d, nil)
	if id != 42 || len(got) != len(vals) || d.Err() != nil {
		t.Fatalf("snapshot round trip: id=%d vals=%v err=%v", id, got, d.Err())
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("snapshot val %d: %v != %v", i, got[i], vals[i])
		}
	}
}

// TestWireMsgCorrupt: a wrong tag or a truncated payload must surface a
// decoder error, never a panic or a silently wrong value.
func TestWireMsgCorrupt(t *testing.T) {
	var e wire.Enc
	AppendUpdateMsg(&e, 5, 1, 9)

	// Wrong tag for each decoder.
	d := wire.NewDec(e.Bytes(), nil)
	DecodeRemoveMsg(d)
	if d.Err() == nil {
		t.Fatal("remove decoder accepted an update tag")
	}
	d.Reset(e.Bytes())
	DecodeSnapshotMsg(d, nil)
	if d.Err() == nil {
		t.Fatal("snapshot decoder accepted an update tag")
	}

	// Truncation at every prefix length must error, not panic.
	full := append([]byte(nil), e.Bytes()...)
	for cut := 0; cut < len(full); cut++ {
		d.Reset(full[:cut])
		DecodeUpdateMsg(d)
		if d.Err() == nil {
			t.Fatalf("truncated update at %d/%d decoded cleanly", cut, len(full))
		}
	}

	// Snapshot claiming more fields than bytes remain.
	e.Reset()
	e.U8(msgTagSnapshot)
	e.Uvarint(9)
	e.Uvarint(1 << 20) // field count far past the payload
	d.Reset(e.Bytes())
	DecodeSnapshotMsg(d, nil)
	if d.Err() == nil {
		t.Fatal("oversized snapshot count decoded cleanly")
	}
}

// TestHubWireSizing compares one scenario under modeled and wire-encoded
// sizing: the same messages ship (counts identical), but wire sizing
// prices them by real encoded length — different totals, reproducible
// across runs.
func TestHubWireSizing(t *testing.T) {
	run := func(wireSizing bool) (int64, int64, int64) {
		h := NewHub(HubConfig{Specs: hubSpecs(), Cell: 32, WireSizing: wireSizing})
		for i := 0; i < 8; i++ {
			h.AddClient(i, spatial.Vec2{X: float64(i * 37 % 200), Y: float64(i * 53 % 200)}, 48, 0)
		}
		for tick := int64(1); tick <= 8; tick++ {
			h.BeginTick(tick)
			for id := ID(1); id <= 20; id++ {
				x := float64((int64(id)*17 + tick*31) % 200)
				y := float64((int64(id)*23 + tick*7) % 200)
				h.UpdateEntity(id, spatial.Vec2{X: x, Y: y}, []float64{float64(tick), x, y})
			}
			h.FlushTick()
		}
		return h.MsgsTotal.Load(), h.BytesTotal.Load(), h.SnapshotTotal.Load()
	}
	mm, mb, ms := run(false)
	wm, wb, ws := run(true)
	if mm != wm || ms != ws {
		t.Fatalf("sizing mode changed message counts: modeled (%d msgs, %d snaps) vs wire (%d, %d)", mm, ms, wm, ws)
	}
	if wb == 0 || mb == 0 {
		t.Fatal("scenario shipped no bytes")
	}
	if wb == mb {
		t.Fatalf("wire sizing priced identically to the model (%d bytes) — sizing not applied", wb)
	}
	// Wire sizing must be reproducible run to run.
	if _, wb2, _ := run(true); wb2 != wb {
		t.Fatalf("wire-sized totals not reproducible: %d vs %d", wb, wb2)
	}
}

// TestHubWireSizingCoverDiff pins the flush-side sizing path: a window
// move prices its cover-diff snapshots and removals by encoding, so a
// bigger entity id (longer varint) costs more bytes than a small one.
func TestHubWireSizingCoverDiff(t *testing.T) {
	bytesAfterMove := func(id ID) int64 {
		h := NewHub(HubConfig{Specs: hubSpecs(), Cell: 32, WireSizing: true})
		c := h.AddClient(1, spatial.Vec2{X: 100, Y: 100}, 40, 0)
		h.BeginTick(1)
		h.SpawnEntity(id, spatial.Vec2{X: 400, Y: 100}, []float64{1, 1, 1})
		h.FlushTick()
		h.BeginTick(2)
		h.MoveClient(c, spatial.Vec2{X: 400, Y: 100})
		h.FlushTick()
		return c.Bytes
	}
	small, big := bytesAfterMove(3), bytesAfterMove(1<<40)
	if small == 0 {
		t.Fatal("cover-diff snapshot shipped nothing")
	}
	if big <= small {
		t.Fatalf("varint id did not grow the wire-sized snapshot: id=3 → %d bytes, id=2^40 → %d", small, big)
	}
}

// checkReencodes is the decoder fuzz property: a payload either fails
// to decode or re-encodes to exactly the bytes the decode consumed.
func checkReencodes(t *testing.T, data []byte, d *wire.Dec, encode func(e *wire.Enc)) {
	t.Helper()
	if d.Err() != nil {
		return
	}
	var e wire.Enc
	encode(&e)
	if consumed := data[:len(data)-d.Remaining()]; !bytes.Equal(e.Bytes(), consumed) {
		t.Fatalf("decoded payload re-encodes to %x, consumed %x", e.Bytes(), consumed)
	}
}

func FuzzDecodeUpdateMsg(f *testing.F) {
	var e wire.Enc
	AppendUpdateMsg(&e, 300, 7, -2.5)
	f.Add(e.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		d := wire.NewDec(data, nil)
		m := DecodeUpdateMsg(d)
		checkReencodes(t, data, d, func(e *wire.Enc) { AppendUpdateMsg(e, m.ID, m.Field, m.Val) })
	})
}

func FuzzDecodeRemoveMsg(f *testing.F) {
	var e wire.Enc
	AppendRemoveMsg(&e, 1<<40)
	f.Add(e.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		d := wire.NewDec(data, nil)
		id := DecodeRemoveMsg(d)
		checkReencodes(t, data, d, func(e *wire.Enc) { AppendRemoveMsg(e, id) })
	})
}

func FuzzDecodeSnapshotMsg(f *testing.F) {
	var e wire.Enc
	AppendSnapshotMsg(&e, 42, []float64{1, -2, 3.75, 0})
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Reset()
	AppendSnapshotMsg(&e, 7, nil)
	f.Add(append([]byte(nil), e.Bytes()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := wire.NewDec(data, nil)
		id, vals := DecodeSnapshotMsg(d, nil)
		checkReencodes(t, data, d, func(e *wire.Enc) { AppendSnapshotMsg(e, id, vals) })
	})
}
