package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/campaign"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// The expected bytes of every served result are recomputed in process
// through the same public entry points the CLI uses. serve ≡ CLI is a
// byte-identity the repository pins, so any difference is a failure.

// specOf extracts the spec of a /v1/predict or /v1/jobs body and
// parses it exactly as the server does.
func specOf(body []byte) (scenario.Spec, error) {
	var req serve.SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return scenario.Spec{}, err
	}
	return scenario.Parse(req.Spec)
}

// encodeResult renders a report as the served Result bytes.
func encodeResult(key string, rep *scenario.Report) ([]byte, error) {
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		return nil, err
	}
	data, err := json.Marshal(serve.Result{Key: key, Report: rep, Text: buf.String()})
	return append(data, '\n'), err
}

// expectPredict is what /v1/predict must answer for body.
func expectPredict(body []byte) ([]byte, error) {
	spec, err := specOf(body)
	if err != nil {
		return nil, err
	}
	spec.Engine = scenario.EngineModel
	c, err := scenario.Compile(spec)
	if err != nil {
		return nil, err
	}
	key, err := scenario.Fingerprint(spec, 1)
	if err != nil {
		return nil, err
	}
	rep, err := scenario.Replications(c, 1, 1)
	if err != nil {
		return nil, err
	}
	return encodeResult(key, rep)
}

// expectJob is what /v1/jobs/{id}/result must serve for body.
func expectJob(body []byte, reps, workers int) ([]byte, error) {
	spec, err := specOf(body)
	if err != nil {
		return nil, err
	}
	c, err := scenario.Compile(spec)
	if err != nil {
		return nil, err
	}
	if c.Spec.Engine == scenario.EngineModel {
		reps = 1
	}
	key, err := scenario.Fingerprint(spec, reps)
	if err != nil {
		return nil, err
	}
	rep, err := scenario.Replications(c, reps, workers)
	if err != nil {
		return nil, err
	}
	return encodeResult(key, rep)
}

// campaignOf extracts and parses the campaign of a /v1/campaigns body.
func campaignOf(body []byte) (campaign.Spec, error) {
	var req serve.CampaignRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return campaign.Spec{}, err
	}
	return campaign.Parse(req.Campaign)
}

// probability metrics must lie in [0, 1].
func isProbability(name string) bool {
	return name == "collision_pr" || name == "norm_throughput" || name == "quiet_fraction" ||
		strings.HasPrefix(name, "throughput_ca") || strings.HasPrefix(name, "collision_pr_ca")
}

// checkReport requires every point to carry reps replications, every
// number to be finite and every probability to lie in [0, 1].
func checkReport(rep *scenario.Report, reps int) error {
	if rep == nil || len(rep.Points) == 0 {
		return fmt.Errorf("empty report")
	}
	if rep.Reps != reps {
		return fmt.Errorf("report has %d reps, want %d", rep.Reps, reps)
	}
	for _, p := range rep.Points {
		if len(p.PerRep) != reps || len(p.Seeds) != reps {
			return fmt.Errorf("point N=%d has %d replications, want %d", p.N, len(p.PerRep), reps)
		}
		for _, row := range p.PerRep {
			for _, m := range row {
				if err := checkValue(m.Name, m.Value); err != nil {
					return fmt.Errorf("point N=%d: %w", p.N, err)
				}
			}
		}
		for _, ms := range p.Metrics {
			s := ms.Summary
			for _, v := range []float64{s.Mean, s.StdDev, s.Min, s.Max, s.CI95} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("point N=%d: %s summary is not finite", p.N, ms.Name)
				}
			}
			if err := checkValue(ms.Name, s.Mean); err != nil {
				return fmt.Errorf("point N=%d: mean: %w", p.N, err)
			}
		}
	}
	return nil
}

func checkValue(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%s = %v is not finite", name, v)
	}
	if isProbability(name) && (v < 0 || v > 1) {
		return fmt.Errorf("%s = %v outside [0, 1]", name, v)
	}
	return nil
}

// checkJobResult validates one served job result.
func checkJobResult(data []byte, reps int) error {
	var res serve.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	return checkReport(res.Report, reps)
}
