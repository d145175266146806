package hpav

import (
	"fmt"

	"repro/internal/config"
)

// MPDU is a MAC protocol data unit as the sniffer sees it: its SoF
// delimiter, whose PBCount gives the 512-byte physical blocks it
// carries. Bursts of up to four MPDUs contend for the medium as a unit
// (Section 3.1): the SoF's MPDUCnt field counts the MPDUs remaining
// after the current one.
type MPDU struct {
	SoF SoF
}

// Burst is an ordered group of MPDUs transmitted back-to-back after a
// single successful contention. All MPDUs of a burst share a BurstID
// and count MPDUCnt down to zero.
type Burst struct {
	MPDUs []MPDU
}

// NewBurst assembles a burst of n MPDUs from src to dst at the given
// priority, each carrying payloadPBs physical blocks lasting
// frameMicros on the wire. The caller supplies the burst identifier
// (monotonic per station).
func NewBurst(n int, src, dst TEI, pri config.Priority, payloadPBs int, frameMicros float64, burstID uint32) (*Burst, error) {
	if n < 1 || n > MaxBurstMPDUs {
		return nil, fmt.Errorf("hpav: burst size %d out of range 1–%d", n, MaxBurstMPDUs)
	}
	if payloadPBs < 1 || payloadPBs > 65535 {
		return nil, fmt.Errorf("hpav: %d physical blocks out of range", payloadPBs)
	}
	if !pri.Valid() {
		return nil, fmt.Errorf("hpav: invalid priority %d", pri)
	}
	b := &Burst{MPDUs: make([]MPDU, n)}
	for i := 0; i < n; i++ {
		b.MPDUs[i].SoF = SoF{
			STEI:        src,
			DTEI:        dst,
			LinkID:      pri,
			MPDUCnt:     uint8(n - 1 - i),
			PBCount:     uint16(payloadPBs),
			FrameLength: EncodeFrameLength(frameMicros),
			BurstID:     burstID,
		}
	}
	return b, nil
}
