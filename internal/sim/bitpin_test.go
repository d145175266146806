package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/backoff"
	"repro/internal/config"
)

// digestWriter feeds fixed-width little-endian words into a hash.
type digestWriter struct{ h hash.Hash }

func (d digestWriter) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d digestWriter) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d digestWriter) ints(vs []int) {
	d.int(int64(len(vs)))
	for _, v := range vs {
		d.int(int64(v))
	}
}

// digestResult writes every Result field: the inputs it echoes, the
// floating-point outputs as exact bits, every counter and every
// per-station counter.
func digestResult(d digestWriter, r Result) {
	in := r.Inputs
	d.int(int64(in.N))
	d.float(in.SimTime)
	d.float(in.Tc)
	d.float(in.Ts)
	d.float(in.FrameLength)
	d.h.Write([]byte(in.Params.Name))
	d.ints(in.Params.CW)
	d.ints(in.Params.DC)
	d.int(int64(len(in.PerStation)))
	d.int(int64(len(in.ErrorProb)))
	d.int(int64(in.Seed))
	d.float(r.CollisionProbability)
	d.float(r.NormalizedThroughput)
	for _, v := range []int64{r.Successes, r.CollidedFrames, r.CollisionEvents, r.FrameErrors, r.IdleSlots} {
		d.int(v)
	}
	d.float(r.Elapsed)
	d.int(int64(len(r.PerStation)))
	for _, s := range r.PerStation {
		for _, v := range []int64{s.Successes, s.Collided, s.Errored, s.Attempts, s.Deferrals, s.Redraws} {
			d.int(v)
		}
	}
	d.int(int64(len(r.Controls)))
}

// traceDigest hashes every medium event an observer sees: its kind and
// its transmitter list.
type traceDigest struct{ d digestWriter }

func (o traceDigest) OnSlot(_ float64, kind SlotKind, txs []int, _ []backoff.Snapshot) {
	o.d.int(int64(kind))
	o.d.ints(txs)
}

// runDCFDigest runs the 802.11 baseline — the engine on cfg.Params() —
// for n stations and one seed, with or without an observer, and hashes
// the Result plus (when observed) the event trace.
func runDCFDigest(t *testing.T, d digestWriter, cfg config.DCF, n int, seed uint64, observed bool) {
	t.Helper()
	in := DefaultInputs(n)
	in.Params = cfg.Params()
	in.SimTime = 2e6
	in.Seed = seed
	var obs Observer
	if observed {
		obs = traceDigest{d}
	}
	digestResult(d, runWith(t, in, false, obs))
}

// TestDCFBitPinned pins the 802.11 baseline simulation bit for bit:
// one SHA-256 per (DCF config, N) over seeds 1–3, each run both on the
// batched path and with an observer, covering every Result field and
// every observed event. A change that moves any counter, any float bit
// or any event of the baseline fails here.
func TestDCFBitPinned(t *testing.T) {
	want := map[string]string{
		"16/1024/N=1":  "ba17d08e70e13c82191ab866bb391081b80615f127bf9245c3719695a7bb4ea4",
		"16/1024/N=2":  "1755c0ff7b4bf5ee25909240706be0d533d6d2f3b27361218aa2b9bb00923e1d",
		"16/1024/N=3":  "6ccc0ade5ad86bbca94986c7482bc11a3e2ca68a4cea9ee3ec81f43125356443",
		"16/1024/N=5":  "b0455ebe132a6b0ce76a7b72f59ec707822bcd0661d1201c1c6aacf2b3960f87",
		"16/1024/N=7":  "4f879f4f11ca359eb63f2d67c6b60dbd6cce7646a123359ee7f6d5550987539d",
		"16/1024/N=12": "d46ee3fe63d4000b237d43f4f32ceff4eed105e992b2e8bdc4e552f2ff3f2f98",
		"32/1024/N=1":  "b6fb62b05abe38baa00f1b1a407c11c89a2091fd72e8c39e62841a42fb4671bd",
		"32/1024/N=2":  "77d245c0d2c9bcb978d1e978e21e5f236e27ebb191a4f50cf2e9106769883f47",
		"32/1024/N=3":  "b4f80f961ac883e15d292602f3abf9ebd6b8b13cc657155aeb485788b7d46e69",
		"32/1024/N=5":  "752e441948003569af5207310e6e9d1ef8d2b60a7de6555ccc01b9d52d3e53d7",
		"32/1024/N=7":  "75a72e118cf382ee91b042454ff226328112494d9c9b302f52eaba6cdf9bc3d9",
		"32/1024/N=12": "2fbd2d5a2a52f587b343c105e2969059ba6aac2b70ea6eec37c0f2f4e5071052",
		"3/10/N=1":     "70eb47ed737f4b9753a02ddddec24ee2fcfe46fb650fcc8a467872a7a8332c3b",
		"3/10/N=2":     "5fc1196606abebe8f8f6bd5a3241f560f8bd346b63ca5d0cc357e6d0bed9878f",
		"3/10/N=3":     "44a926e64862f889fb86921ee1607f10eae6b442038be73830362c5b1a4556a3",
		"3/10/N=5":     "0aebbcfab21b552b7ccb7093333ba1e352908ef412f45da18967659188c897e6",
		"3/10/N=7":     "c4369f4d9389bdad96ab6d6002cd0131e2be88ddb5fe33455910d255b85559d6",
		"3/10/N=12":    "603b9e0a441d6e04122176bf3cd492e89859714b5830fb0c7615a91f11fa9cfc",
		"8/8/N=1":      "647b7a0385d4cab21e75f447c43b3d5d64c07c9f1fcda12a72b8964c9c7481f4",
		"8/8/N=2":      "3d51c3e9b8276009dcf4f231991da898fcc51f01bab4f9bb050a0bfd216c2eda",
		"8/8/N=3":      "00990f99a4a64e261294a7cea9b4eb83a08569e120b413322ab2a56701b24b8f",
		"8/8/N=5":      "2b65a4e8d10f6b47ba1e49043273a3832f72942fb633d0aad1e1ec6d0b22ac39",
		"8/8/N=7":      "053f6858dec2e3fb5b831934dec26fa43a0aef1ef393e379a749705617c47695",
		"8/8/N=12":     "48551f752e3184d05997322b2ab39370866577dc616883722d42e8caa61e433c",
		"1/4/N=1":      "465d9b7cf5d4ef7cd66af174caafed1a964f0395e51800e1715686b08355ba79",
		"1/4/N=2":      "2494141c898f49f7aeb53a3dcdbf5e454996b3e00c4572df33a9e049ea16e09c",
		"1/4/N=3":      "1413fb2bc88e87720533747aa1f26d0b9318142996dd62fb308c1565a45d721a",
		"1/4/N=5":      "e5120ab3c8aab3a9ba719c486b82455b1dea78241cbef6fc46e1b08212942f54",
		"1/4/N=7":      "dfefdafe4802b3f70b6ebd8cbae4e555ad5f92cb8e81978b7dd0802d08e5da47",
		"1/4/N=12":     "3fa6f101f2f542d944449c6dea96b50b0f0683fae18dd2a022c119e86583362f",
	}
	for _, cfg := range []config.DCF{
		{Name: "802.11", CWmin: 16, CWmax: 1024},
		{Name: "cw32", CWmin: 32, CWmax: 1024},
		{Name: "cw3-10", CWmin: 3, CWmax: 10},
		{Name: "cw8-8", CWmin: 8, CWmax: 8},
		{Name: "cw1-4", CWmin: 1, CWmax: 4},
	} {
		for _, n := range []int{1, 2, 3, 5, 7, 12} {
			h := sha256.New()
			d := digestWriter{h}
			for seed := uint64(1); seed <= 3; seed++ {
				for _, observed := range []bool{false, true} {
					runDCFDigest(t, d, cfg, n, seed, observed)
				}
			}
			key := fmt.Sprintf("%d/%d/N=%d", cfg.CWmin, cfg.CWmax, n)
			got := hex.EncodeToString(h.Sum(nil))
			if w, ok := want[key]; !ok {
				t.Errorf("%s: no pin recorded; got %q", key, got)
			} else if got != w {
				t.Errorf("%s: 802.11 baseline moved: digest %s, want %s", key, got, w)
			}
		}
	}
}
