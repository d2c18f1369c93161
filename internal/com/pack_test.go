package com

import (
	"testing"

	"autorte/internal/sim"
)

// motorolaPdu mixes both byte orders, a Motorola signal wrapping across
// bytes included.
func motorolaPdu() *IPdu {
	return &IPdu{Name: "mix", Length: 8, Mode: Direct, Signals: []Signal{
		{Name: "a", StartBit: 7, Bits: 12, BigEndian: true},
		{Name: "b", StartBit: 16, Bits: 9},
		{Name: "c", StartBit: 39, Bits: 20, BigEndian: true, Scale: 0.5},
	}}
}

func TestPackAllocs(t *testing.T) {
	for _, pdu := range []*IPdu{speedPdu(), motorolaPdu()} {
		in := map[string]float64{}
		for _, s := range pdu.Signals {
			in[s.Name] = 3
		}
		if allocs := testing.AllocsPerRun(100, func() { pdu.Pack(in) }); allocs != 1 {
			t.Errorf("%s: Pack allocates %v times, want 1 (the payload)", pdu.Name, allocs)
		}
	}
}

// mapSink makes the reference map of TestUnpackAllocs escape, as
// Unpack's returned map does.
var mapSink map[string]float64

func TestUnpackAllocs(t *testing.T) {
	for _, pdu := range []*IPdu{speedPdu(), motorolaPdu()} {
		payload := pdu.Pack(nil)
		want := testing.AllocsPerRun(100, func() {
			out := make(map[string]float64, len(pdu.Signals))
			for _, s := range pdu.Signals {
				out[s.Name] = 0
			}
			mapSink = out
		})
		if allocs := testing.AllocsPerRun(100, func() { _, _ = pdu.Unpack(payload) }); allocs != want {
			t.Errorf("%s: Unpack allocates %v times, want %v (the returned map)", pdu.Name, allocs, want)
		}
	}
}

// TestPackMatchesBitPositions checks the in-place bit walk of Pack and
// Unpack against the positions Validate uses, over random layouts in
// both byte orders.
func TestPackMatchesBitPositions(t *testing.T) {
	rng := sim.NewRand(14)
	for n := 0; n < 2000; n++ {
		length := 1 + int(rng.Uint64()%8)
		s := Signal{
			Name:      "s",
			StartBit:  int(rng.Uint64() % uint64(length*8)),
			Bits:      1 + int(rng.Uint64()%uint64(length*8)),
			BigEndian: rng.Uint64()%2 == 0,
		}
		pdu := &IPdu{Name: "p", Length: length, Mode: Direct, Signals: []Signal{s}}
		raw := rng.Uint64()
		if s.Bits < 64 {
			raw &= 1<<uint(s.Bits) - 1
		}
		got := pdu.Pack(map[string]float64{"s": float64(raw)})
		raw = s.ToRaw(float64(raw)) // float64 rounding of wide values
		positions, err := s.bitPositions(length * 8)
		want := make([]byte, length)
		for j, pos := range positions {
			if (raw>>uint(s.Bits-1-j))&1 == 1 {
				want[pos/8] |= 1 << uint(pos%8)
			}
		}
		if string(got) != string(want) {
			t.Fatalf("%+v in %d bytes: Pack % X, bit positions give % X", s, length, got, want)
		}
		out, uerr := pdu.Unpack(got)
		if (err == nil) != (uerr == nil) {
			t.Fatalf("%+v in %d bytes: bitPositions error %v, Unpack error %v", s, length, err, uerr)
		}
		if err != nil {
			if want := "com: PDU p signal s: " + err.Error(); uerr.Error() != want {
				t.Fatalf("Unpack error %q, want %q", uerr, want)
			}
			continue
		}
		if out["s"] != s.FromRaw(raw) {
			t.Fatalf("%+v in %d bytes: Unpack %v, want %v", s, length, out["s"], s.FromRaw(raw))
		}
	}
}

func TestUnpackErrorText(t *testing.T) {
	cases := []struct {
		pdu     *IPdu
		payload []byte
		want    string
	}{
		{speedPdu(), []byte{1, 2}, "com: PDU PduChassis1: payload 2 bytes, want 8"},
		{&IPdu{Name: "i", Length: 1, Signals: []Signal{{Name: "x", StartBit: 4, Bits: 8}}},
			[]byte{0}, "com: PDU i signal x: bits [4,12) outside payload"},
		{&IPdu{Name: "m", Length: 1, Signals: []Signal{{Name: "x", StartBit: 3, Bits: 8, BigEndian: true}}},
			[]byte{0}, "com: PDU m signal x: motorola bit 15 outside payload"},
	}
	for _, c := range cases {
		_, err := c.pdu.Unpack(c.payload)
		if err == nil || err.Error() != c.want {
			t.Errorf("Unpack error %v, want %q", err, c.want)
		}
	}
}
