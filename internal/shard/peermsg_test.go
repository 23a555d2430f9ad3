package shard

import (
	"bytes"
	"testing"

	"gamedb/internal/entity"
	"gamedb/internal/wire"
)

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

func seedRow() []entity.Value {
	return []entity.Value{entity.Float(95.5), entity.Int(-3), entity.Str("raider"), entity.Bool(true), entity.Null()}
}

func FuzzDecodeBarrierPayload(f *testing.F) {
	arena := append(seedRow(), seedRow()[:2]...)
	var e wire.Enc
	appendBarrierPayload(&e, nil, nil, nil)
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Reset()
	appendBarrierPayload(&e,
		[]stagedMig{{id: 12, table: "units", behavior: "raid", rowLo: 0, rowHi: 5}},
		[]stagedCand{{id: 1 << 33, owner: 3, table: "units", rowLo: 5, rowHi: 7}},
		arena)
	f.Add(append([]byte(nil), e.Bytes()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := wire.NewDec(data, wire.NewInterner())
		migs, cands, _ := decodeBarrierPayload(d, 1, nil, nil, nil)
		checkReencodes(t, data, d, func(e *wire.Enc) {
			var arena []entity.Value
			staged := make([]stagedMig, len(migs))
			for i, m := range migs {
				lo := len(arena)
				arena = append(arena, m.row...)
				staged[i] = stagedMig{id: m.id, table: m.table, behavior: m.behavior, rowLo: lo, rowHi: len(arena)}
			}
			stagedC := make([]stagedCand, len(cands))
			for i, c := range cands {
				lo := len(arena)
				arena = append(arena, c.row...)
				stagedC[i] = stagedCand{id: c.id, owner: c.owner, table: c.table, rowLo: lo, rowHi: len(arena)}
			}
			appendBarrierPayload(e, staged, stagedC, arena)
		})
	})
}

func FuzzDecodeRowsPayload(f *testing.F) {
	var e wire.Enc
	appendRowsPayload(&e, nil)
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Reset()
	appendRowsPayload(&e, []hashRow{{id: 4, table: "units", row: seedRow()}, {id: 9, table: "cells"}})
	f.Add(append([]byte(nil), e.Bytes()...))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := wire.NewDec(data, wire.NewInterner())
		rows := decodeRowsPayload(d, nil)
		checkReencodes(t, data, d, func(e *wire.Enc) { appendRowsPayload(e, rows) })
	})
}
