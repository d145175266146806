// Command plcd hosts an emulated HomePlug AV power strip over UDP: N
// saturated stations transmitting to a destination station D, each
// reachable through the vendor management-message interface that the
// measurement tools (ampstat, faifa) speak.
//
// Typical session:
//
//	plcd -n 7 -listen 127.0.0.1:5277 &
//	ampstat -host 127.0.0.1:5277 -op reset -all
//	ampstat -host 127.0.0.1:5277 -op run -duration 240
//	ampstat -host 127.0.0.1:5277 -op collision -all
//
// The daemon prints the station MAC addresses on startup; time only
// advances when a tool sends the run control message, so results are
// fully deterministic for a given -seed.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/device"
	"repro/internal/testbed"
)

func main() {
	var (
		n      = flag.Int("n", 2, "number of saturated transmitting stations")
		burst  = flag.Int("burst", 2, "MPDUs per burst (1-4)")
		frame  = flag.Float64("frame", 2050, "per-MPDU payload duration in µs")
		mgmt   = flag.Float64("mgmt", 0, "mean management-MME inter-arrival per station in µs (0 = off)")
		seed   = flag.Uint64("seed", 1, "random seed")
		listen = flag.String("listen", "127.0.0.1:0", "UDP address to listen on")
	)
	flag.Parse()

	tb, err := testbed.New(testbed.Options{
		N: *n, BurstMPDUs: *burst, FrameMicros: *frame,
		MgmtMeanMicros: *mgmt, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "plcd:", err)
		os.Exit(2)
	}

	pc, err := net.ListenPacket("udp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "plcd:", err)
		os.Exit(1)
	}
	host := device.NewHost(pc, tb.Network)
	host.Add(tb.Destination)
	for _, d := range tb.Transmitters {
		host.Add(d)
	}

	// Catch the shutdown signals before the banner announces the address:
	// a client may answer it with SIGTERM as soon as it is served.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	fmt.Printf("plcd: listening on %s\n", host.Addr())
	fmt.Printf("plcd: destination D at %s (TEI %d)\n", testbed.DstAddr, testbed.DstTEI)
	for i := range tb.Transmitters {
		fmt.Printf("plcd: station %d at %s (TEI %d)\n", i+1, testbed.StationAddr(i), testbed.StationTEI(i))
	}

	errc := make(chan error, 1)
	go func() { errc <- host.Serve() }()

	select {
	case s := <-sig:
		fmt.Printf("plcd: %v, shutting down\n", s)
		host.Close()
		<-errc
	case err := <-errc:
		if err != nil {
			fmt.Fprintln(os.Stderr, "plcd:", err)
			os.Exit(1)
		}
	}
}
