// Package com implements an AUTOSAR-COM-like communication stack layer:
// application signals are packed bit-exactly into I-PDUs, I-PDUs are
// transmitted under configurable transmission modes (periodic, direct,
// mixed) and routed to channels by a PDU router, which also acts as a
// gateway between buses (the "Gateway" box in the paper's Figure 1).
package com

import (
	"fmt"
	"math"

	"autorte/internal/e2eprot"
	"autorte/internal/sim"
)

// Signal describes one application value inside an I-PDU.
type Signal struct {
	Name string
	// StartBit is the bit offset inside the PDU payload. For Intel
	// (little-endian) signals it is the LSB position and bits ascend; for
	// Motorola (big-endian) signals it is the MSB position and bits walk
	// down within each byte, continuing at bit 7 of the next byte — the
	// classic DBC convention.
	StartBit int
	// Bits is the raw width (1..64).
	Bits int
	// BigEndian selects Motorola byte order (Intel when false).
	BigEndian bool
	// Scale and ZeroOffset convert physical to raw: raw = (phys - ZeroOffset) / Scale.
	// Scale 0 defaults to 1.
	Scale      float64
	ZeroOffset float64
}

func (s *Signal) scale() float64 {
	if s.Scale == 0 {
		return 1
	}
	return s.Scale
}

// ToRaw quantizes a physical value into the signal's raw integer range,
// saturating at the representable bounds.
func (s *Signal) ToRaw(phys float64) uint64 {
	raw := math.Round((phys - s.ZeroOffset) / s.scale())
	max := float64(uint64(1)<<uint(s.Bits) - 1)
	if raw < 0 {
		raw = 0
	}
	if raw > max {
		raw = max
	}
	return uint64(raw)
}

// FromRaw converts a raw integer back to the physical value.
func (s *Signal) FromRaw(raw uint64) float64 {
	return float64(raw)*s.scale() + s.ZeroOffset
}

// TxMode is the AUTOSAR-COM transmission mode of an I-PDU.
type TxMode uint8

const (
	// Periodic transmits every Period regardless of updates.
	Periodic TxMode = iota
	// Direct transmits on every signal update (rate-limited by MinDelay).
	Direct
	// Mixed transmits periodically and additionally on updates.
	Mixed
)

func (m TxMode) String() string {
	switch m {
	case Periodic:
		return "periodic"
	case Direct:
		return "direct"
	default:
		return "mixed"
	}
}

// IPdu is an interaction-layer PDU: a byte payload carrying packed
// signals.
type IPdu struct {
	Name    string
	Length  int // payload bytes (1..8 for classic CAN, larger for FlexRay)
	Signals []Signal
	Mode    TxMode
	// Period applies to Periodic and Mixed modes.
	Period sim.Duration
	// MinDelay rate-limits Direct/Mixed event transmissions.
	MinDelay sim.Duration
	// E2E, when non-nil, makes this a protected PDU: the transmitter
	// stamps an E2E protection header (CRC + sequence counter) into the
	// payload bytes the config reserves, and receive-side Verifiers check
	// it. Validate rejects signals laid out over the reserved header.
	E2E *e2eprot.Config
}

// Validate checks the PDU layout: signal fields inside the payload and
// non-overlapping.
func (p *IPdu) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("com: PDU with empty name")
	}
	if p.Length < 1 || p.Length > 254 {
		return fmt.Errorf("com: PDU %s: length %d outside 1..254", p.Name, p.Length)
	}
	used := make([]bool, p.Length*8)
	e2eFrom, e2eTo := -1, -1
	if p.E2E != nil {
		if err := p.E2E.Validate(p.Length); err != nil {
			return fmt.Errorf("com: PDU %s: %w", p.Name, err)
		}
		e2eFrom = p.E2E.Offset * 8
		e2eTo = (p.E2E.Offset + p.E2E.Profile.HeaderLen()) * 8
	}
	seen := map[string]bool{}
	for i := range p.Signals {
		s := &p.Signals[i]
		if s.Name == "" {
			return fmt.Errorf("com: PDU %s: signal with empty name", p.Name)
		}
		if seen[s.Name] {
			return fmt.Errorf("com: PDU %s: duplicate signal %s", p.Name, s.Name)
		}
		seen[s.Name] = true
		if s.Bits < 1 || s.Bits > 64 {
			return fmt.Errorf("com: PDU %s signal %s: width %d outside 1..64", p.Name, s.Name, s.Bits)
		}
		positions, err := s.bitPositions(len(used))
		if err != nil {
			return fmt.Errorf("com: PDU %s signal %s: %w", p.Name, s.Name, err)
		}
		for _, b := range positions {
			if b >= e2eFrom && b < e2eTo {
				return fmt.Errorf("com: PDU %s signal %s: overlaps the E2E protection header at bit %d", p.Name, s.Name, b)
			}
			if used[b] {
				return fmt.Errorf("com: PDU %s signal %s: overlaps another signal at bit %d", p.Name, s.Name, b)
			}
			used[b] = true
		}
	}
	if (p.Mode == Periodic || p.Mode == Mixed) && p.Period <= 0 {
		return fmt.Errorf("com: PDU %s: %v mode needs a positive period", p.Name, p.Mode)
	}
	return nil
}

// Signal returns the named signal, or nil.
func (p *IPdu) Signal(name string) *Signal {
	for i := range p.Signals {
		if p.Signals[i].Name == name {
			return &p.Signals[i]
		}
	}
	return nil
}

// bitPositions returns the payload bit indices the signal occupies, in
// MSB-to-LSB value order. Intel signals ascend from StartBit (LSB);
// Motorola signals walk down from StartBit (MSB) per the DBC convention.
func (s *Signal) bitPositions(payloadBits int) ([]int, error) {
	if err := s.checkBits(payloadBits); err != nil {
		return nil, err
	}
	out := make([]int, s.Bits)
	for i, pos := 0, s.firstBit(); i < s.Bits; i, pos = i+1, s.nextBit(pos) {
		out[i] = pos
	}
	return out, nil
}

// checkBits reports whether every bit of the signal lies inside a
// payload of payloadBits bits, walking them without materialising them.
func (s *Signal) checkBits(payloadBits int) error {
	if !s.BigEndian {
		if s.StartBit < 0 || s.StartBit+s.Bits > payloadBits {
			return fmt.Errorf("bits [%d,%d) outside payload", s.StartBit, s.StartBit+s.Bits)
		}
		return nil
	}
	for i, pos := 0, s.firstBit(); i < s.Bits; i, pos = i+1, s.nextBit(pos) {
		if pos < 0 || pos >= payloadBits {
			return fmt.Errorf("motorola bit %d outside payload", pos)
		}
	}
	return nil
}

// firstBit is the payload index of the signal's MSB.
func (s *Signal) firstBit() int {
	if s.BigEndian {
		return s.StartBit
	}
	return s.StartBit + s.Bits - 1
}

// nextBit steps from one payload bit of the signal to the next less
// significant one.
func (s *Signal) nextBit(pos int) int {
	if s.BigEndian && pos%8 == 0 {
		return pos + 15 // Motorola: wrap to bit 7 of the next byte
	}
	return pos - 1
}

// Pack serializes physical signal values into a payload. Missing signals
// pack as zero raw value; a signal outside the payload packs nothing.
func (p *IPdu) Pack(values map[string]float64) []byte {
	payload := make([]byte, p.Length)
	for i := range p.Signals {
		s := &p.Signals[i]
		if s.checkBits(p.Length*8) != nil {
			continue
		}
		raw := uint64(0)
		if v, ok := values[s.Name]; ok {
			raw = s.ToRaw(v)
		}
		pos := s.firstBit()
		for j := s.Bits - 1; j >= 0; j-- {
			if (raw>>uint(j))&1 == 1 {
				payload[pos/8] |= 1 << uint(pos%8)
			}
			pos = s.nextBit(pos)
		}
	}
	return payload
}

// Unpack deserializes a payload into physical values. Short payloads
// return an error (a communication fault the error-handling layer reports).
func (p *IPdu) Unpack(payload []byte) (map[string]float64, error) {
	if len(payload) < p.Length {
		return nil, fmt.Errorf("com: PDU %s: payload %d bytes, want %d", p.Name, len(payload), p.Length)
	}
	out := make(map[string]float64, len(p.Signals))
	for i := range p.Signals {
		s := &p.Signals[i]
		if err := s.checkBits(p.Length * 8); err != nil {
			return nil, fmt.Errorf("com: PDU %s signal %s: %w", p.Name, s.Name, err)
		}
		var raw uint64
		for j, pos := 0, s.firstBit(); j < s.Bits; j, pos = j+1, s.nextBit(pos) {
			raw <<= 1
			if payload[pos/8]&(1<<uint(pos%8)) != 0 {
				raw |= 1
			}
		}
		out[s.Name] = s.FromRaw(raw)
	}
	return out, nil
}
