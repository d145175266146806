package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// aliasSpec is a model spec in wire form; aliasVariant is the same spec
// with its fields reordered and spaced out: other bytes, same study.
const (
	aliasSpec    = `{"name":"alias","engine":"model","sim_time_us":1e7,"stations":[{"count":3}]}`
	aliasVariant = `{ "stations": [ {"count": 3} ], "sim_time_us": 1e7, "engine": "model", "name": "alias" }`
)

// predictBody wraps a wire spec as a /v1/predict body.
func predictBody(spec string) []byte { return []byte(`{"spec":` + spec + `}`) }

// getRec drives one GET through the handler and returns the recorder.
func getRec(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// predictCounts is what one /v1/predict answer may move in /metrics.
type predictCounts struct{ predictions, hits, bodyHits, diskHits float64 }

func readPredictCounts(t *testing.T, h http.Handler) predictCounts {
	t.Helper()
	fams := scrape(t, h)
	return predictCounts{
		predictions: counterValue(t, fams, "plcsrv_predictions_total", nil),
		hits:        counterValue(t, fams, "plcsrv_predict_cache_hits_total", nil),
		bodyHits:    counterValue(t, fams, "plcsrv_predict_body_hits_total", nil),
		diskHits:    counterValue(t, fams, "plcsrv_disk_cache_hits_total", nil),
	}
}

// askPredict POSTs body and checks the answer against the expected
// status, X-Cache and counter deltas; it returns the answer's bytes.
func askPredict(t *testing.T, h http.Handler, path string, body []byte, wantCache string, want predictCounts) []byte {
	t.Helper()
	before := readPredictCounts(t, h)
	rec := post(h, path, body)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != wantCache {
		t.Fatalf("POST %s %s: %d X-Cache %q, want 200 %q: %s", path, body, rec.Code, rec.Header().Get("X-Cache"), wantCache, rec.Body)
	}
	after := readPredictCounts(t, h)
	got := predictCounts{after.predictions - before.predictions, after.hits - before.hits,
		after.bodyHits - before.bodyHits, after.diskHits - before.diskHits}
	if got != want {
		t.Fatalf("POST %s %s moved the counters by %+v, want %+v", path, body, got, want)
	}
	return rec.Body.Bytes()
}

// checkAliases verifies the alias index against the memory tier: every
// alias names a resident entry that carries it back, so the index can
// never outgrow the entry count.
func checkAliases(t *testing.T, c *cache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.bodies) > len(c.items) {
		t.Errorf("%d aliases for %d resident entries", len(c.bodies), len(c.items))
	}
	for sum, el := range c.bodies {
		e := el.Value.(*entry)
		if e.body != sum || c.items[e.key] != el {
			t.Errorf("alias %x names entry %s, which is not resident under it", sum[:4], e.key)
		}
	}
}

// hasAlias reports whether body's hash is aliased.
func hasAlias(c *cache, body []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.bodies[sha256.Sum256(body)]
	return ok
}

// cliText is the CLI's rendering of spec at reps (Compile, Replications,
// Report.Write — what `sim1901 -scenario` prints).
func cliText(t *testing.T, spec scenario.Spec, reps int) string {
	t.Helper()
	c, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.Replications(c, reps, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestPredictBodyAlias: a byte-identical re-ask is answered by its body
// hash with the bytes of the first answer, X-Cache: hit, and the
// counter deltas of a fingerprint hit plus one body hit. A body that
// differs only in whitespace and field order is a hit through the full
// path, and takes over the entry's one alias.
func TestPredictBodyAlias(t *testing.T) {
	s := mustNew(t, Config{})
	defer s.Close()
	h := s.Handler()
	body, variant := predictBody(aliasSpec), predictBody(aliasVariant)
	fullHit := predictCounts{predictions: 1, hits: 1}
	bodyHit := predictCounts{predictions: 1, hits: 1, bodyHits: 1}

	first := askPredict(t, h, "/v1/predict", body, "miss", predictCounts{predictions: 1})
	steps := []struct {
		name  string
		body  []byte
		count predictCounts
	}{
		{"re-ask", body, bodyHit},
		{"variant", variant, fullHit},
		{"variant re-ask", variant, bodyHit},
		{"re-ask after the variant took the alias", body, fullHit},
		{"re-ask again", body, bodyHit},
	}
	for _, st := range steps {
		if got := askPredict(t, h, "/v1/predict", st.body, "hit", st.count); !bytes.Equal(got, first) {
			t.Fatalf("%s: answer differs from the first:\n%s\n%s", st.name, got, first)
		}
		checkAliases(t, s.cache)
		if n := len(s.cache.bodies); n != 1 {
			t.Fatalf("%s: %d aliases, want the entry's one", st.name, n)
		}
	}
	if !hasAlias(s.cache, body) || hasAlias(s.cache, variant) {
		t.Error("the newest full-path body must hold the alias, and the one it replaced none")
	}
}

// TestPredictBodyAliasOnlyAfterSuccess: a body that fails to decode,
// validate, compile or fit the model answers the same 400 every time
// and never gets an alias.
func TestPredictBodyAliasOnlyAfterSuccess(t *testing.T) {
	s := mustNew(t, Config{})
	defer s.Close()
	h := s.Handler()
	for _, tc := range []struct {
		body string
		want []string // substrings of the error
	}{
		{`{"spec":`, []string{"decode request"}},
		{`{"spec":{"name":"x"},"bogus":1}`, []string{"unknown field"}},
		{`{"spec":{"name":"x","sim_time_us":1e6,"frame_us":5000,"stations":[{"count":2}]}}`, []string{`"frame_us" = 5000`, `"ts_us"`}},
		{`{"spec":{"name":"x","sim_time_us":1e6,"beacon_period_us":33330,"stations":[{"count":2}]}}`, []string{"beacons"}},
		{`{"spec":{"name":"x","sim_time_us":1e6,"stations":[{"count":2,"cw":[8,1000000],"dc":[0,1]}]}}`, []string{`"cw"`}},
	} {
		var first []byte
		for i := 0; i < 3; i++ {
			rec := post(h, "/v1/predict", []byte(tc.body))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s: %d, want 400: %s", tc.body, rec.Code, rec.Body)
			}
			if i == 0 {
				first = rec.Body.Bytes()
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(first, &e); err != nil {
					t.Fatalf("%s: 400 body %s is not the JSON error shape", tc.body, first)
				}
				for _, w := range tc.want {
					if !strings.Contains(e.Error, w) {
						t.Errorf("%s: error %q does not name %s", tc.body, e.Error, w)
					}
				}
			} else if !bytes.Equal(rec.Body.Bytes(), first) {
				t.Errorf("%s: answer %d %s differs from the first %s", tc.body, i, rec.Body, first)
			}
		}
		if hasAlias(s.cache, []byte(tc.body)) {
			t.Errorf("%s: a failed body was aliased", tc.body)
		}
	}
	if c := readPredictCounts(t, h); c.predictions != 0 || c.bodyHits != 0 {
		t.Errorf("failed bodies counted as predictions: %+v", c)
	}
}

// TestPredictBodyAliasEvicted: evicting an entry removes its alias, so
// the evicted body is solved again through the full path.
func TestPredictBodyAliasEvicted(t *testing.T) {
	s := mustNew(t, Config{CacheEntries: 1})
	defer s.Close()
	h := s.Handler()
	a := predictBody(aliasSpec)
	b := predictBody(strings.Replace(aliasSpec, `"count":3`, `"count":4`, 1))
	askPredict(t, h, "/v1/predict", a, "miss", predictCounts{predictions: 1})
	askPredict(t, h, "/v1/predict", b, "miss", predictCounts{predictions: 1})
	checkAliases(t, s.cache)
	if hasAlias(s.cache, a) || !hasAlias(s.cache, b) {
		t.Fatal("the evicted entry kept its alias, or the resident one lost it")
	}
	askPredict(t, h, "/v1/predict", a, "miss", predictCounts{predictions: 1})
	checkAliases(t, s.cache)
}

// TestPredictBodyAliasClosed: a closed server answers 503 for aliased
// bytes too, counts nothing, and aliases nothing new.
func TestPredictBodyAliasClosed(t *testing.T) {
	s := mustNew(t, Config{})
	h := s.Handler()
	body, variant := predictBody(aliasSpec), predictBody(aliasVariant)
	askPredict(t, h, "/v1/predict", body, "miss", predictCounts{predictions: 1})
	s.Close()
	before := readPredictCounts(t, h)
	for _, b := range [][]byte{body, variant} {
		if rec := post(h, "/v1/predict", b); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("closed server answered %s with %d, want 503: %s", b, rec.Code, rec.Body)
		}
	}
	if after := readPredictCounts(t, h); after != before {
		t.Errorf("closed server moved the counters: %+v → %+v", before, after)
	}
	if hasAlias(s.cache, variant) {
		t.Error("a 503 answer aliased its body")
	}
}

// TestPredictBodyAliasConcurrent races aliasing, re-aliasing and
// eviction (three entries for six studies, two byte forms each): every
// answer is its study's bytes, and the index stays consistent. Run it
// under -race.
func TestPredictBodyAliasConcurrent(t *testing.T) {
	const studies, clients, rounds = 6, 4, 60
	s := mustNew(t, Config{CacheEntries: 3})
	defer s.Close()
	h := s.Handler()
	bodies := make([][2][]byte, studies)
	want := make([][]byte, studies)
	for i := range bodies {
		spec := strings.Replace(aliasSpec, `"count":3`, fmt.Sprintf(`"count":%d`, i+2), 1)
		variant := strings.Replace(aliasVariant, `"count": 3`, fmt.Sprintf(`"count": %d`, i+2), 1)
		bodies[i] = [2][]byte{predictBody(spec), predictBody(variant)}
		parsed, err := specFromJSON(spec)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], _, _, err = s.Predict(parsed); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c + r*(c+1)) % studies
				rec := post(h, "/v1/predict", bodies[i][r%2])
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[i]) {
					t.Errorf("client %d round %d: study %d answered %d %.80s", c, r, i, rec.Code, rec.Body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	checkAliases(t, s.cache)
}

// TestTextOnDemand: with no text kept beside the result JSON, every
// ?format=text answer is derived from the envelope and is byte-identical
// to the CLI: a predict miss, an aliased predict hit, a job result from
// memory, and one faulted in from the disk tier after a restart. A
// campaign envelope's derived text matches its decoded text field.
func TestTextOnDemand(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, Config{CacheDir: dir})
	h := s.Handler()

	modelSpec, err := specFromJSON(aliasSpec)
	if err != nil {
		t.Fatal(err)
	}
	wantModel := cliText(t, modelSpec, 1)
	body := predictBody(aliasSpec)
	for _, xc := range []string{"miss", "hit"} {
		rec := post(h, "/v1/predict?format=text", body)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != xc || rec.Body.String() != wantModel {
			t.Fatalf("predict %s text: %d %q\n%s\nwant\n%s", xc, rec.Code, rec.Header().Get("X-Cache"), rec.Body, wantModel)
		}
	}
	if c := readPredictCounts(t, h); c.bodyHits != 1 {
		t.Fatalf("the text re-ask was not a body hit: %+v", c)
	}

	spec := tinySpec("text-on-demand")
	wantJob := cliText(t, spec, 3)
	getText := func(s *Server, path string) string {
		t.Helper()
		rec := getRec(s.Handler(), path+"?format=text")
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "text/plain; charset=utf-8" {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	j, _, _, err := s.Submit(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if got := getText(s, "/v1/jobs/"+j.ID()+"/result"); got != wantJob {
		t.Fatalf("job text from memory:\n%s\nwant\n%s", got, wantJob)
	}
	cj, _, _, err := s.SubmitCampaign(tinyCampaign("text-on-demand"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, cj)
	s.Close()

	s2 := mustNew(t, Config{CacheDir: dir})
	defer s2.Close()
	j2, cached, _, err := s2.Submit(spec, 3)
	if err != nil || !cached {
		t.Fatalf("restart: cached=%v err=%v, want a disk hit", cached, err)
	}
	if got := getText(s2, "/v1/jobs/"+j2.ID()+"/result"); got != wantJob {
		t.Fatalf("job text from disk:\n%s\nwant\n%s", got, wantJob)
	}
	cj2, cached, _, err := s2.SubmitCampaign(tinyCampaign("text-on-demand"))
	if err != nil || !cached {
		t.Fatalf("campaign restart: cached=%v err=%v, want a disk hit", cached, err)
	}
	data, text, _ := cj2.Result()
	var res CampaignResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if text != res.Text || getText(s2, "/v1/campaigns/"+cj2.ID()+"/result") != res.Text || !strings.Contains(text, "text-on-demand") {
		t.Fatalf("campaign text from disk differs from its envelope's:\n%s\nwant\n%s", text, res.Text)
	}
	if c, _ := s2.Stats(); c.DiskCacheHits != 2 {
		t.Errorf("disk hits = %d, want the job's and the campaign's", c.DiskCacheHits)
	}
}
