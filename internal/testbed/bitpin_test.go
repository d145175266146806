package testbed

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// macDump renders everything a run of the event-driven network leaves
// behind, bit for bit: every Stats integer, the float64 bits of the
// clock, QuietTime, Elapsed, PayloadMicros and each AccessDelays entry,
// PerClass in CA order, and every station's counter buckets in Keys
// order.
func macDump(tb *Testbed) string {
	var b strings.Builder
	st := tb.Network.Stats()
	bits := func(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }
	fmt.Fprintf(&b, "clock %s quiet %s elapsed %s payload %s\n",
		bits(tb.Network.Now()), bits(st.QuietTime), bits(st.Elapsed), bits(st.PayloadMicros))
	fmt.Fprintf(&b, "succ %d/%d coll %d/%d idle %d ferr %d/%d pbs %d/%d beacons %d\n",
		st.Successes, st.SuccessMPDUs, st.Collisions, st.CollidedMPDUs, st.IdleSlots,
		st.FrameErrors, st.FrameErrorMPDUs, st.ErroredPBs, st.DeliveredPBs, st.Beacons)
	fmt.Fprintf(&b, "delays %d\n", len(st.AccessDelays))
	for _, d := range st.AccessDelays {
		b.WriteString(bits(d))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "classes %d\n", len(st.PerClass))
	for pri := config.CA0; pri <= config.CA3; pri++ {
		if c := st.PerClass[pri]; c != nil {
			fmt.Fprintf(&b, "%v %d %d %d\n", pri, c.Successes, c.Collisions, c.FrameErrors)
		}
	}
	for _, s := range tb.Network.Stations() {
		fmt.Fprintf(&b, "station %s\n", s.Name)
		for _, k := range s.Counters().Keys() {
			c := s.Counters().Fetch(k)
			fmt.Fprintf(&b, "  %s %v %d acked %d collided %d\n", k.Peer, k.Priority, k.Direction, c.Acked, c.Collided)
		}
	}
	return b.String()
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestMACBitPinned pins the event-driven network's output across
// commits. TestMACFastForwardBitIdentical compares two loops of one
// commit, so a rewrite of state both loops share would move both sides
// together; this test compares against digests captured from an
// earlier, independently written medium loop. Successes and collisions
// are pinned in the clear so a failure reads as a count, not just a
// hash.
func TestMACBitPinned(t *testing.T) {
	boosted := config.Params{Name: "boost", CW: []int{16, 32, 64, 128}, DC: []int{1, 2, 4, 16}}
	cases := []struct {
		name       string
		opts       Options
		frameErr   float64
		succ, coll int64
		digest     string
	}{
		{name: "saturated-N1", opts: Options{N: 1, Seed: 11},
			succ: 1197, coll: 0, digest: "767a5ec4558b490ed6f1c5083ba61b8926af8376c2fae79a9a2d42b9f0b0b28e"},
		{name: "saturated-N2", opts: Options{N: 2, Seed: 3},
			succ: 1137, coll: 44, digest: "c2c361c5295ede078eca95813ef34ff0559149dc684ce83c0763907fa9b99ef2"},
		{name: "saturated-N7", opts: Options{N: 7, Seed: 9},
			succ: 978, coll: 165, digest: "92398e6a73a63c81d4b921095ab6fcf1108111469a81fbc6f71b8a6f352fef4a"},
		{name: "burst1-N3", opts: Options{N: 3, BurstMPDUs: 1, Seed: 4},
			succ: 1694, coll: 149, digest: "d063d5b176c39b6c5819b26bbc7c3a1fb9c29ccd18a89897bb571b03cf09ce6b"},
		{name: "poisson-traffic", opts: Options{N: 3, TrafficMeanMicros: 30_000, Seed: 5},
			succ: 329, coll: 3, digest: "77a0a75dc037723f214480c586fd52181d796e9cc7a8acfcac230ffd30c770da"},
		{name: "management-CA2", opts: Options{N: 2, MgmtMeanMicros: 50_000, Seed: 6},
			succ: 1246, coll: 53, digest: "f6bb915929b6fac659b37a0a7ce763c6e82ca6fc1b8be4d6d60eb5bf27e97617"},
		{name: "beacons", opts: Options{N: 3, BeaconPeriodMicros: 33_330, Seed: 7},
			succ: 1063, coll: 92, digest: "3b54033ab102ced5bf8aacce2f9192dab396ddcd157e283ef6870aa65951e028"},
		{name: "delays-recorded", opts: Options{N: 2, RecordDelays: true, TrafficMeanMicros: 8_000, Seed: 8},
			succ: 865, coll: 24, digest: "952cac6e5f20f8382380371e28efe845f2a9ab1ec7b8066760a73af4a34ef7c2"},
		{name: "frame-errors", opts: Options{N: 3, Seed: 12}, frameErr: 0.15,
			succ: 927, coll: 66, digest: "21cf5acf6fe3a934ef21cb6b38bce5eb30c92f7e01ba5efd395f5e0f7e299855"},
		{name: "set-params", opts: Options{N: 4, Params: &boosted, Seed: 13},
			succ: 1081, coll: 72, digest: "b05d302182d8aef3037dac35589507b49d0d33dfb34caaaab9a67bbc38a44745"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb, err := New(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.frameErr > 0 {
				root := rng.New(tc.opts.Seed ^ 0xe77)
				for i, s := range tb.Network.Stations()[1:] {
					s.SetFrameError(tc.frameErr, root.Split(uint64(i)))
				}
			}
			for _, d := range []float64{1e6, 5e5, 2e6} {
				tb.Run(d)
			}
			st := tb.Network.Stats()
			dump := macDump(tb)
			if got := sha256Hex([]byte(dump)); st.Successes != tc.succ || st.Collisions != tc.coll || got != tc.digest {
				t.Errorf("successes %d collisions %d digest %s; pinned %d %d %s\n%s",
					st.Successes, st.Collisions, got, tc.succ, tc.coll, tc.digest, dump)
			}
		})
	}
}

// TestMACScenarioReportsPinned pins the JSON of a full
// scenario.Replications report for the example specs that run the
// event-driven engine with Poisson traffic, two priority classes and
// beacons.
func TestMACScenarioReportsPinned(t *testing.T) {
	cases := []struct{ file, digest string }{
		{"poisson-load.json", "e0e3306b47ef577aeeb925ce2fddf79468ea4364c47e72ddeda0020c15a3c184"},
		{"priority-beacons.json", "db922a0d2fa396e97fb6766b65dd7dce456deb99dd26c51254ea392d6f8b8b5d"},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			spec, err := scenario.Load(filepath.Join("..", "..", "examples", "scenarios", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			c, err := scenario.Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := scenario.Replications(c, 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(data); got != tc.digest {
				t.Errorf("report digest %s, pinned %s\n%s", got, tc.digest, data)
			}
		})
	}
}
