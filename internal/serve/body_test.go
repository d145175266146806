package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// parkedServer returns a server whose one worker holds every dequeued
// job until the test ends, so no simulation runs. Cleanup cancels
// every job before releasing the worker, then closes the server.
func parkedServer(tb testing.TB, queueDepth int) *Server {
	tb.Helper()
	s, err := New(Config{Workers: 1, QueueDepth: queueDepth})
	if err != nil {
		tb.Fatal(err)
	}
	release := make(chan struct{})
	s.testHoldRun = func(*Job) { <-release }
	tb.Cleanup(func() {
		for _, j := range s.Jobs() {
			j.Cancel()
		}
		close(release)
		s.Close()
	})
	return s
}

// post drives one POST through the handler and returns the recorder.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// paddedBody returns a request body of exactly size bytes: a valid
// request for path whose spec description is padded with spaces.
func paddedBody(t *testing.T, path string, size int) []byte {
	t.Helper()
	pad := func(skeleton string) []byte {
		n := size - len(skeleton) + len("%s")
		if n < 0 {
			t.Fatalf("size %d below the %d-byte skeleton", size, len(skeleton))
		}
		return []byte(fmt.Sprintf(skeleton, strings.Repeat(" ", n)))
	}
	spec := `{"name":"padded","description":"%s","sim_time_us":1e6,"stations":[{"count":2}]}`
	if path == "/v1/campaigns" {
		return pad(`{"campaign":{"name":"padded","base":` + spec +
			`,"axes":[{"path":"n","values":[1,2]}],"reps":2}}`)
	}
	return pad(`{"spec":` + spec + `,"reps":2}`)
}

// TestRequestBodyCap: every POST route answers a body over
// maxBodyBytes with 413 and the JSON error shape, and still accepts a
// valid body of exactly maxBodyBytes.
func TestRequestBodyCap(t *testing.T) {
	s := parkedServer(t, 8)
	h := s.Handler()
	for _, tc := range []struct {
		path string
		ok   int
	}{
		{"/v1/jobs", http.StatusAccepted},
		{"/v1/predict", http.StatusOK},
		{"/v1/campaigns", http.StatusAccepted},
	} {
		rec := post(h, tc.path, paddedBody(t, tc.path, maxBodyBytes))
		if rec.Code != tc.ok {
			t.Errorf("POST %s with a %d-byte body: %d %s, want %d", tc.path, maxBodyBytes, rec.Code, rec.Body, tc.ok)
		}
		rec = post(h, tc.path, paddedBody(t, tc.path, maxBodyBytes+1))
		var e struct {
			Error string `json:"error"`
		}
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: %d, want 413", tc.path, maxBodyBytes+1, rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("POST %s 413 body %q is not the JSON error shape", tc.path, rec.Body)
		}
	}
}

// TestTrailingDataRejected: a POST body must hold exactly one JSON
// value. A valid request followed by garbage, or by a second request,
// is a 400 on every route — and again a 400 when asked twice, never an
// alias hit for the bytes.
func TestTrailingDataRejected(t *testing.T) {
	s := parkedServer(t, 8)
	h := s.Handler()
	spec := `{"name":"trailing","sim_time_us":1e6,"stations":[{"count":2}]}`
	camp := `{"name":"trailing","base":` + spec + `,"axes":[{"path":"n","values":[1,2]}],"reps":2}`
	for path, bodies := range map[string][]string{
		"/v1/jobs":      {`{"spec":` + spec + `} trailing garbage`, `{"spec":` + spec + `,"reps":2}{"spec":1}`},
		"/v1/predict":   {`{"spec":` + spec + `} trailing garbage`, `{"spec":` + spec + `,"reps":2}{"spec":1}`},
		"/v1/campaigns": {`{"campaign":` + camp + `} trailing garbage`, `{"campaign":` + camp + `}{"campaign":1}`},
	} {
		for _, body := range bodies {
			for ask := 0; ask < 2; ask++ {
				rec := post(h, path, []byte(body))
				if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "trailing data") {
					t.Errorf("POST %s %q (ask %d): %d %s, want 400 naming the trailing data", path, body, ask+1, rec.Code, rec.Body)
				}
			}
		}
	}
	if c, _ := s.Stats(); c.Predictions != 0 || c.Submissions != 0 {
		t.Errorf("bodies with trailing data were served: %+v", c)
	}
}

// FuzzRequestBodies drives the three POST routes with arbitrary bytes.
// Every answer must be one of the statuses the API documents for a
// submission, carry a JSON body, and no input may panic the handler.
// The worker is held, so accepted jobs never simulate. /v1/predict is
// deterministic in the bytes: the same body posted again gets the same
// status and body, and a 200 comes back as a cache hit.
func FuzzRequestBodies(f *testing.F) {
	spec := `{"name":"fz","sim_time_us":1e6,"stations":[{"count":2}]}`
	for _, body := range []string{
		`{"spec":` + spec + `,"reps":3}`,
		`{"spec":` + spec + `,"reps":3,"timeout_s":-1}`,
		`{"campaign":{"name":"fz","base":` + spec + `,"axes":[{"path":"n","values":[1,2]}],"reps":2}}`,
		`{"spec":{"name":"fz","engine":"model","stations":[{"count":5}]}}`,
		`{"spec":` + spec + `}{"spec":1}`,
		`{"unknown":1}`,
		``,
		`null`,
	} {
		for route := uint8(0); route < 3; route++ {
			f.Add(route, []byte(body))
		}
	}
	s := parkedServer(f, 4)
	h := s.Handler()
	routes := [...]string{"/v1/jobs", "/v1/predict", "/v1/campaigns"}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := routes[int(route)%len(routes)]
		rec := post(h, path, body)
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest,
			http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
		default:
			t.Fatalf("POST %s %q: status %d %s", path, body, rec.Code, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("POST %s %q: %d with non-JSON body %q", path, body, rec.Code, rec.Body)
		}
		if path != "/v1/predict" {
			return
		}
		again := post(h, path, body)
		if again.Code != rec.Code || !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) {
			t.Fatalf("POST %s %q twice: %d %q, then %d %q", path, body, rec.Code, rec.Body, again.Code, again.Body)
		}
		if again.Code == http.StatusOK && again.Header().Get("X-Cache") != "hit" {
			t.Fatalf("POST %s %q twice: the second 200 is X-Cache %q, want hit", path, body, again.Header().Get("X-Cache"))
		}
	})
}
