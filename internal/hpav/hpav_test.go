package hpav

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/config"
)

var (
	testODA = MAC{0x00, 0xB0, 0x52, 0x00, 0x00, 0x01}
	testOSA = MAC{0x00, 0xB0, 0x52, 0x00, 0x00, 0x02}
)

func TestMACString(t *testing.T) {
	if got := testODA.String(); got != "00:b0:52:00:00:01" {
		t.Errorf("MAC.String() = %q", got)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{
		ODA:     testODA,
		OSA:     testOSA,
		Type:    MMTypeStatsReq,
		FMI:     0,
		OUI:     IntellonOUI,
		Payload: []byte{1, 2, 3, 4},
	}
	b := f.Marshal()
	g, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if g.ODA != f.ODA || g.OSA != f.OSA || g.Type != f.Type || g.OUI != f.OUI {
		t.Errorf("round trip mismatch: %+v vs %+v", g, f)
	}
	if !bytes.Equal(g.Payload, f.Payload) {
		t.Errorf("payload mismatch: %v vs %v", g.Payload, f.Payload)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 10)); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short frame: %v", err)
	}
	f := (&Frame{Type: MMTypeStatsReq}).Marshal()
	f[12], f[13] = 0x08, 0x00 // IPv4 ethertype
	if _, err := Unmarshal(f); !errors.Is(err, ErrEtherType) {
		t.Errorf("wrong ethertype: %v", err)
	}
	f = (&Frame{Type: MMTypeStatsReq}).Marshal()
	f[14] = 0x7F
	if _, err := Unmarshal(f); !errors.Is(err, ErrMMV) {
		t.Errorf("wrong MMV: %v", err)
	}
}

func TestMMTypeStrings(t *testing.T) {
	for typ, want := range map[MMType]string{
		MMTypeStatsReq:   "VS_STATS.REQ",
		MMTypeStatsCnf:   "VS_STATS.CNF",
		MMTypeSnifferReq: "VS_SNIFFER.REQ",
		MMTypeSnifferCnf: "VS_SNIFFER.CNF",
		MMTypeSnifferInd: "VS_SNIFFER.IND",
	} {
		if got := typ.String(); got != want {
			t.Errorf("%04X.String() = %q, want %q", uint16(typ), got, want)
		}
	}
}

// TestStatsCnfByteOffsets pins the paper's byte layout: "the bytes
// 25-32 of this reply represent the number of acknowledged frames and
// the bytes 33-40 represent the number of collided frames"
// (1-based, from the start of the Ethernet frame).
func TestStatsCnfByteOffsets(t *testing.T) {
	cnf := &StatsCnf{
		Status:    StatsStatusSuccess,
		Direction: DirectionTx,
		Acked:     0x1122334455667788,
		Collided:  0x99AABBCCDDEEFF00,
	}
	frame := &Frame{
		ODA: testODA, OSA: testOSA,
		Type: MMTypeStatsCnf, OUI: IntellonOUI,
		Payload: cnf.Marshal(),
	}
	b := frame.Marshal()
	// 1-based bytes 25–32 → 0-based offsets 24–31.
	acked := binaryLEUint64(b[24:32])
	collided := binaryLEUint64(b[32:40])
	if acked != cnf.Acked {
		t.Errorf("bytes 25-32 = 0x%016X, want acked counter 0x%016X", acked, cnf.Acked)
	}
	if collided != cnf.Collided {
		t.Errorf("bytes 33-40 = 0x%016X, want collided counter 0x%016X", collided, cnf.Collided)
	}
}

func binaryLEUint64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func TestStatsReqRoundTrip(t *testing.T) {
	r := &StatsReq{
		Control:     StatsReset,
		Direction:   DirectionTx,
		Priority:    config.CA1,
		PeerAddress: testODA,
	}
	g, err := UnmarshalStatsReq(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *g != *r {
		t.Errorf("round trip: %+v vs %+v", g, r)
	}
}

func TestStatsReqValidation(t *testing.T) {
	ok := (&StatsReq{Control: StatsFetch, Direction: DirectionRx, Priority: config.CA3}).Marshal()
	cases := map[string]func([]byte) []byte{
		"short":         func(b []byte) []byte { return b[:4] },
		"bad control":   func(b []byte) []byte { b[0] = 9; return b },
		"bad direction": func(b []byte) []byte { b[1] = 7; return b },
		"bad priority":  func(b []byte) []byte { b[2] = 200; return b },
	}
	for name, mutate := range cases {
		b := append([]byte(nil), ok...)
		if _, err := UnmarshalStatsReq(mutate(b)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestStatsCnfRoundTrip(t *testing.T) {
	c := &StatsCnf{Status: 0, Direction: DirectionRx, Acked: 162220, Collided: 25}
	g, err := UnmarshalStatsCnf(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *g != *c {
		t.Errorf("round trip: %+v vs %+v", g, c)
	}
	if _, err := UnmarshalStatsCnf(make([]byte, 5)); err == nil {
		t.Error("short confirm accepted")
	}
}

func TestControlStrings(t *testing.T) {
	if StatsFetch.String() != "fetch" || StatsReset.String() != "reset" {
		t.Error("StatsControl names wrong")
	}
	if DirectionTx.String() != "tx" || DirectionRx.String() != "rx" {
		t.Error("StatsDirection names wrong")
	}
	if SnifferEnable.String() != "enable" || SnifferDisable.String() != "disable" {
		t.Error("SnifferControl names wrong")
	}
}

func TestSoFRoundTrip(t *testing.T) {
	s := &SoF{
		STEI: 3, DTEI: 1, LinkID: config.CA1, MPDUCnt: 1,
		PBCount: 4, FrameLength: EncodeFrameLength(1050), BurstID: 77,
	}
	g, err := UnmarshalSoF(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *g != *s {
		t.Errorf("round trip: %+v vs %+v", g, s)
	}
}

func TestSoFValidation(t *testing.T) {
	ok := (&SoF{STEI: 1, DTEI: 2, LinkID: config.CA1, MPDUCnt: 0, PBCount: 1}).Marshal()
	short := ok[:sofLen-1]
	if _, err := UnmarshalSoF(short); err == nil {
		t.Error("short SoF accepted")
	}
	badType := append([]byte(nil), ok...)
	badType[0] = byte(DelimiterSACK)
	if _, err := UnmarshalSoF(badType); err == nil {
		t.Error("SACK bytes accepted as SoF")
	}
	badLink := append([]byte(nil), ok...)
	badLink[3] = 99
	if _, err := UnmarshalSoF(badLink); err == nil {
		t.Error("invalid link id accepted")
	}
	badCnt := append([]byte(nil), ok...)
	badCnt[4] = MaxBurstMPDUs
	if _, err := UnmarshalSoF(badCnt); err == nil {
		t.Error("MPDUCnt ≥ 4 accepted")
	}
}

func TestSoFMarshalPanicsOnHugeBurst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Marshal accepted MPDUCnt ≥ 4")
		}
	}()
	(&SoF{MPDUCnt: 4}).Marshal()
}

func TestFrameLengthEncoding(t *testing.T) {
	tests := []struct {
		us   float64
		want uint16
	}{
		{0, 0},
		{-5, 0},
		{1.28, 1},
		{2050, 1602}, // 2050/1.28 = 1601.56 → 1602
		{1e9, 65535}, // saturate
	}
	for _, tc := range tests {
		if got := EncodeFrameLength(tc.us); got != tc.want {
			t.Errorf("EncodeFrameLength(%v) = %d, want %d", tc.us, got, tc.want)
		}
	}
	s := &SoF{FrameLength: EncodeFrameLength(2050)}
	if d := s.DurationMicros(); d < 2049 || d > 2051 {
		t.Errorf("DurationMicros round trip = %v, want ≈2050", d)
	}
}

func TestSoFLastInBurst(t *testing.T) {
	if !(&SoF{MPDUCnt: 0}).LastInBurst() {
		t.Error("MPDUCnt 0 not detected as last in burst")
	}
	if (&SoF{MPDUCnt: 1}).LastInBurst() {
		t.Error("MPDUCnt 1 detected as last in burst")
	}
}

func TestSnifferBodies(t *testing.T) {
	req := &SnifferReq{Control: SnifferEnable}
	g, err := UnmarshalSnifferReq(req.Marshal())
	if err != nil || g.Control != SnifferEnable {
		t.Errorf("sniffer req round trip: %+v, %v", g, err)
	}
	if _, err := UnmarshalSnifferReq([]byte{}); err == nil {
		t.Error("empty sniffer req accepted")
	}
	if _, err := UnmarshalSnifferReq([]byte{9}); err == nil {
		t.Error("unknown sniffer control accepted")
	}

	cnf := &SnifferCnf{Status: 0, State: SnifferEnable}
	gc, err := UnmarshalSnifferCnf(cnf.Marshal())
	if err != nil || gc.State != SnifferEnable {
		t.Errorf("sniffer cnf round trip: %+v, %v", gc, err)
	}
	if _, err := UnmarshalSnifferCnf([]byte{0}); err == nil {
		t.Error("short sniffer cnf accepted")
	}
}

func TestSnifferIndRoundTrip(t *testing.T) {
	ind := &SnifferInd{
		TimestampMicros: 123456789,
		SoF: SoF{
			STEI: 5, DTEI: 1, LinkID: config.CA2, MPDUCnt: 0,
			PBCount: 2, FrameLength: 100, BurstID: 9,
		},
	}
	g, err := UnmarshalSnifferInd(ind.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if g.TimestampMicros != ind.TimestampMicros || g.SoF != ind.SoF {
		t.Errorf("round trip: %+v vs %+v", g, ind)
	}
	if _, err := UnmarshalSnifferInd(make([]byte, 10)); err == nil {
		t.Error("short sniffer ind accepted")
	}
}

func TestBurstConstruction(t *testing.T) {
	b, err := NewBurst(2, 3, 1, config.CA1, 4, 1050, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range b.MPDUs {
		if m.SoF.STEI != 3 || m.SoF.DTEI != 1 || m.SoF.BurstID != 42 || m.SoF.PBCount != 4 {
			t.Errorf("MPDU %d: %+v does not carry the burst's source, destination, id and PB count", i, m.SoF)
		}
	}
	if b.MPDUs[0].SoF.MPDUCnt != 1 || b.MPDUs[1].SoF.MPDUCnt != 0 {
		t.Errorf("countdown wrong: %d, %d", b.MPDUs[0].SoF.MPDUCnt, b.MPDUs[1].SoF.MPDUCnt)
	}
	if !b.MPDUs[1].SoF.LastInBurst() || b.MPDUs[0].SoF.LastInBurst() {
		t.Error("LastInBurst flags wrong")
	}
}

func TestBurstConstructionErrors(t *testing.T) {
	if _, err := NewBurst(0, 1, 2, config.CA1, 1, 100, 1); err == nil {
		t.Error("burst of 0 accepted")
	}
	if _, err := NewBurst(5, 1, 2, config.CA1, 1, 100, 1); err == nil {
		t.Error("burst of 5 accepted")
	}
	if _, err := NewBurst(1, 1, 2, config.CA1, 0, 100, 1); err == nil {
		t.Error("0 PBs accepted")
	}
	if _, err := NewBurst(1, 1, 2, config.Priority(9), 1, 100, 1); err == nil {
		t.Error("invalid priority accepted")
	}
}

// Property: MME frame marshal/unmarshal is the identity.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(oda, osa [6]byte, typ uint16, fmi uint16, payload []byte) bool {
		in := &Frame{ODA: MAC(oda), OSA: MAC(osa), Type: MMType(typ), FMI: fmi, OUI: IntellonOUI, Payload: payload}
		out, err := Unmarshal(in.Marshal())
		if err != nil {
			return false
		}
		return out.ODA == in.ODA && out.OSA == in.OSA && out.Type == in.Type &&
			out.FMI == in.FMI && bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
