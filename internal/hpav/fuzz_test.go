package hpav

import (
	"bytes"
	"testing"

	"repro/internal/config"
)

// FuzzMMEDecode feeds arbitrary datagrams through every decoder the
// device plane runs on UDP input: the MME frame codec (plcd's first
// step on each request) and the payload decoders behind it — the
// emulator, stats and sniffer requests plcd serves, and the
// confirmations and sniffer indications ampstat and faifa read back.
// A decoder must never panic, and any value it accepts must re-marshal
// to bytes that decode to an equal value.
//
//	go test ./internal/hpav -run=XXX -fuzz=FuzzMMEDecode
func FuzzMMEDecode(f *testing.F) {
	peer := MAC{0x00, 0xB0, 0x52, 0, 0, 1}
	sof := SoF{STEI: 2, DTEI: 1, LinkID: config.CA1, MPDUCnt: 1, PBCount: 4, FrameLength: EncodeFrameLength(2050), BurstID: 7}
	payloads := [][]byte{
		(&EmulatorReq{Op: EmulatorRun, DurationMicros: 1e6}).Marshal(),
		(&EmulatorCnf{ClockMicros: 42}).Marshal(),
		(&StatsReq{Control: StatsReset, Direction: DirectionTx, Priority: config.CA1, PeerAddress: peer}).Marshal(),
		(&StatsCnf{Direction: DirectionRx, Acked: 10, Collided: 3}).Marshal(),
		(&SnifferReq{Control: SnifferEnable}).Marshal(),
		(&SnifferCnf{State: SnifferEnable}).Marshal(),
		(&SnifferInd{TimestampMicros: 99, SoF: sof}).Marshal(),
		sof.Marshal(),
	}
	types := []MMType{MMTypeEmulatorReq, MMTypeEmulatorCnf, MMTypeStatsReq, MMTypeStatsCnf,
		MMTypeSnifferReq, MMTypeSnifferCnf, MMTypeSnifferInd, MMTypeSnifferInd}
	for i, p := range payloads {
		f.Add((&Frame{ODA: peer, OSA: MAC{2, 0, 0, 0, 0, 1}, Type: types[i], FMI: uint16(i), OUI: IntellonOUI, Payload: p}).Marshal())
		f.Add(p)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		if fr, err := Unmarshal(b); err == nil {
			out := fr.Marshal()
			again, err := Unmarshal(out)
			if err != nil {
				t.Fatalf("frame re-decode of %x: %v", out, err)
			}
			if again.ODA != fr.ODA || again.OSA != fr.OSA || again.Type != fr.Type ||
				again.FMI != fr.FMI || again.OUI != fr.OUI || !bytes.Equal(again.Payload, fr.Payload) {
				t.Fatalf("frame round trip: %+v → %+v", fr, again)
			}
			decodePayloads(t, fr.Payload)
		}
		decodePayloads(t, b)
	})
}

// decodePayloads runs every payload decoder on b.
func decodePayloads(t *testing.T, b []byte) {
	t.Helper()
	roundTrip(t, "EmulatorReq", b, UnmarshalEmulatorReq, (*EmulatorReq).Marshal)
	roundTrip(t, "EmulatorCnf", b, UnmarshalEmulatorCnf, (*EmulatorCnf).Marshal)
	roundTrip(t, "StatsReq", b, UnmarshalStatsReq, (*StatsReq).Marshal)
	roundTrip(t, "StatsCnf", b, UnmarshalStatsCnf, (*StatsCnf).Marshal)
	roundTrip(t, "SnifferReq", b, UnmarshalSnifferReq, (*SnifferReq).Marshal)
	roundTrip(t, "SnifferCnf", b, UnmarshalSnifferCnf, (*SnifferCnf).Marshal)
	roundTrip(t, "SnifferInd", b, UnmarshalSnifferInd, (*SnifferInd).Marshal)
	roundTrip(t, "SoF", b, UnmarshalSoF, (*SoF).Marshal)
}

// roundTrip decodes b; when the decoder accepts it, the value must
// re-marshal to bytes that decode to an equal value.
func roundTrip[T comparable](t *testing.T, name string, b []byte, dec func([]byte) (*T, error), enc func(*T) []byte) {
	t.Helper()
	v, err := dec(b)
	if err != nil {
		return
	}
	out := enc(v)
	w, err := dec(out)
	if err != nil {
		t.Fatalf("%s: re-decode of %x (from %x): %v", name, out, b, err)
	}
	if *w != *v {
		t.Fatalf("%s round trip: %+v → %+v", name, *v, *w)
	}
}
