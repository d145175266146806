package device

import (
	"net"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/hpav"
	"repro/internal/mac"
	"repro/internal/rng"
	"repro/internal/timing"
	"repro/internal/traffic"
)

var (
	dstAddr = hpav.MAC{0x00, 0xB0, 0x52, 0, 0, 0x01}
	staAddr = hpav.MAC{0x00, 0xB0, 0x52, 0, 0, 0x02}
	sta2    = hpav.MAC{0x00, 0xB0, 0x52, 0, 0, 0x03}
	toolMAC = hpav.MAC{0x02, 0, 0, 0, 0, 0x01}
)

// buildPair wires a 2-transmitter network and returns (network, devices,
// destination device).
func buildPair(seed uint64) (*mac.Network, []*Device, *Device) {
	root := rng.New(seed)
	nw := mac.NewNetworkCfg(mac.Config{})
	dst := mac.NewStation("D", 1, dstAddr, root.Split(0))
	nw.Attach(dst)
	var devs []*Device
	for i, addr := range []hpav.MAC{staAddr, sta2} {
		st := mac.NewStation("sta", hpav.TEI(i+2), addr, root.Split(uint64(i+1)))
		st.AddFlow(&mac.Flow{Source: traffic.Saturated{}, Spec: mac.BurstSpec{
			Dst: 1, DstAddr: dstAddr, Priority: config.CA1,
			MPDUs: 2, PBsPerMPDU: 4, FrameMicros: timing.DefaultFrameDuration,
		}})
		nw.Attach(st)
		devs = append(devs, New(st))
	}
	return nw, devs, New(dst)
}

func mme(oda hpav.MAC, typ hpav.MMType, payload []byte) *hpav.Frame {
	return &hpav.Frame{ODA: oda, OSA: toolMAC, Type: typ, OUI: hpav.IntellonOUI, Payload: payload}
}

func TestStatsFetchAndReset(t *testing.T) {
	nw, devs, _ := buildPair(1)
	nw.Run(2e6)

	fetch := mme(staAddr, hpav.MMTypeStatsReq, (&hpav.StatsReq{
		Control: hpav.StatsFetch, Direction: hpav.DirectionTx,
		Priority: config.CA1, PeerAddress: dstAddr,
	}).Marshal())
	reply, err := devs[0].HandleMME(fetch)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != hpav.MMTypeStatsCnf {
		t.Fatalf("reply type %v", reply.Type)
	}
	if reply.ODA != toolMAC || reply.OSA != staAddr {
		t.Errorf("reply addressing wrong: %v → %v", reply.OSA, reply.ODA)
	}
	cnf, err := hpav.UnmarshalStatsCnf(reply.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if cnf.Acked == 0 {
		t.Error("no acked MPDUs after 2 s of saturation")
	}

	reset := mme(staAddr, hpav.MMTypeStatsReq, (&hpav.StatsReq{
		Control: hpav.StatsReset, Direction: hpav.DirectionTx,
		Priority: config.CA1, PeerAddress: dstAddr,
	}).Marshal())
	reply, err = devs[0].HandleMME(reset)
	if err != nil {
		t.Fatal(err)
	}
	cnf, _ = hpav.UnmarshalStatsCnf(reply.Payload)
	if cnf.Acked != 0 || cnf.Collided != 0 {
		t.Errorf("counters after reset: %+v", cnf)
	}
}

func TestStatsWrongPriorityIsZero(t *testing.T) {
	nw, devs, _ := buildPair(2)
	nw.Run(1e6)
	fetch := mme(staAddr, hpav.MMTypeStatsReq, (&hpav.StatsReq{
		Control: hpav.StatsFetch, Direction: hpav.DirectionTx,
		Priority: config.CA3, PeerAddress: dstAddr,
	}).Marshal())
	reply, err := devs[0].HandleMME(fetch)
	if err != nil {
		t.Fatal(err)
	}
	cnf, _ := hpav.UnmarshalStatsCnf(reply.Payload)
	if cnf.Acked != 0 {
		t.Errorf("CA3 counters nonzero: %+v (stats must be per priority)", cnf)
	}
}

func TestSnifferToggleAndCapture(t *testing.T) {
	nw, _, dst := buildPair(3)

	on := mme(dstAddr, hpav.MMTypeSnifferReq, (&hpav.SnifferReq{Control: hpav.SnifferEnable}).Marshal())
	reply, err := dst.HandleMME(on)
	if err != nil {
		t.Fatal(err)
	}
	cnf, err := hpav.UnmarshalSnifferCnf(reply.Payload)
	if err != nil || cnf.State != hpav.SnifferEnable {
		t.Fatalf("sniffer enable: %+v, %v", cnf, err)
	}
	if !dst.SnifferEnabled() {
		t.Fatal("device does not report sniffer on")
	}

	nw.Run(2e6)
	caps := dst.Captures()
	if len(caps) == 0 {
		t.Fatal("no captures with sniffer on")
	}
	for _, c := range caps {
		if c.SoF.LinkID != config.CA1 {
			t.Errorf("captured non-CA1 SoF in a data-only scenario: %+v", c.SoF)
		}
	}

	off := mme(dstAddr, hpav.MMTypeSnifferReq, (&hpav.SnifferReq{Control: hpav.SnifferDisable}).Marshal())
	if _, err := dst.HandleMME(off); err != nil {
		t.Fatal(err)
	}
	nw.Run(1e6)
	if got := dst.Captures(); len(got) != 0 {
		t.Errorf("%d captures with sniffer off", len(got))
	}
}

func TestHandleMMEErrors(t *testing.T) {
	_, devs, _ := buildPair(4)
	if _, err := devs[0].HandleMME(nil); err == nil {
		t.Error("nil request accepted")
	}
	if _, err := devs[0].HandleMME(mme(staAddr, hpav.MMType(0x6000), nil)); err == nil {
		t.Error("unsupported MMType accepted")
	}
	if _, err := devs[0].HandleMME(mme(staAddr, hpav.MMTypeStatsReq, []byte{1, 2})); err == nil {
		t.Error("truncated stats request accepted")
	}
}

// TestUDPEndToEnd runs the full Section 3.2 procedure over real UDP
// sockets: reset at every station, advance the virtual clock, fetch the
// counters, compute ΣCᵢ/ΣAᵢ.
func TestUDPEndToEnd(t *testing.T) {
	nw, devs, dst := buildPair(5)

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost(pc, nw)
	for _, d := range devs {
		host.Add(d)
	}
	host.Add(dst)
	done := make(chan error, 1)
	go func() { done <- host.Serve() }()
	defer func() {
		if err := host.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	cli, err := Dial(pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.Timeout = 10 * time.Second

	// Reset every transmitter (paper step 1).
	for _, a := range []hpav.MAC{staAddr, sta2} {
		if err := cli.ResetLink(a, dstAddr, config.CA1); err != nil {
			t.Fatalf("reset %s: %v", a, err)
		}
	}
	// Run the test (10 virtual seconds).
	clock, err := cli.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if clock < 10_000_000 {
		t.Fatalf("clock %d after run", clock)
	}
	// Fetch and aggregate (paper step 2).
	var sumC, sumA uint64
	for _, a := range []hpav.MAC{staAddr, sta2} {
		c, err := cli.FetchLink(a, dstAddr, config.CA1)
		if err != nil {
			t.Fatalf("fetch %s: %v", a, err)
		}
		sumC += c.Collided
		sumA += c.Acked
	}
	if sumA == 0 {
		t.Fatal("no acknowledged MPDUs over UDP path")
	}
	p := float64(sumC) / float64(sumA)
	if p <= 0 || p > 0.3 {
		t.Errorf("N=2 collision probability over UDP = %v, outside plausible band", p)
	}

	// Clock query must not advance time.
	c1, err := cli.Clock()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cli.Clock()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("status query advanced the clock: %d → %d", c1, c2)
	}
}

func TestUDPSnifferToggle(t *testing.T) {
	nw, devs, dst := buildPair(6)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost(pc, nw)
	for _, d := range devs {
		host.Add(d)
	}
	host.Add(dst)
	go host.Serve()
	defer host.Close()

	cli, err := Dial(pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	cnf, err := cli.Sniffer(dstAddr, hpav.SnifferEnable)
	if err != nil {
		t.Fatal(err)
	}
	if cnf.State != hpav.SnifferEnable {
		t.Errorf("state %v", cnf.State)
	}
	if _, err := cli.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if caps := dst.Captures(); len(caps) == 0 {
		t.Error("no captures after UDP-enabled sniffer run")
	}
}

func TestHostIgnoresGarbage(t *testing.T) {
	nw, devs, _ := buildPair(7)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost(pc, nw)
	host.Add(devs[0])
	go host.Serve()
	defer host.Close()

	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Garbage, then a valid request: the host must survive and answer.
	if _, err := conn.Write([]byte("not an mme")); err != nil {
		t.Fatal(err)
	}
	req := mme(staAddr, hpav.MMTypeStatsReq, (&hpav.StatsReq{
		Control: hpav.StatsFetch, Direction: hpav.DirectionTx,
		Priority: config.CA1, PeerAddress: dstAddr,
	}).Marshal())
	if _, err := conn.Write(req.Marshal()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatalf("no reply after garbage: %v", err)
	}
	f, err := hpav.Unmarshal(buf[:n])
	if err != nil || f.Type != hpav.MMTypeStatsCnf {
		t.Errorf("unexpected reply %v, %v", f, err)
	}
}

func TestBroadcastStatsReachesAll(t *testing.T) {
	nw, devs, dst := buildPair(8)
	nw.Run(1e6)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost(pc, nw)
	for _, d := range devs {
		host.Add(d)
	}
	host.Add(dst)
	go host.Serve()
	defer host.Close()

	conn, err := net.Dial("udp", pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := mme(hpav.Broadcast, hpav.MMTypeStatsReq, (&hpav.StatsReq{
		Control: hpav.StatsFetch, Direction: hpav.DirectionTx,
		Priority: config.CA1, PeerAddress: dstAddr,
	}).Marshal())
	if _, err := conn.Write(req.Marshal()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	seen := map[hpav.MAC]bool{}
	for len(seen) < 3 {
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("after %d replies: %v", len(seen), err)
		}
		f, err := hpav.Unmarshal(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		seen[f.OSA] = true
	}
}

func TestDeviceNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(nil) accepted")
		}
	}()
	New(nil)
}
