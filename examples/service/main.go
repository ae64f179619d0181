// Service runs the full moving-objects prediction stack end to end in one
// process: it starts the HTTP API on an ephemeral port, streams a
// vehicle's observations to it the way a GPS gateway would, and then asks
// the service where the vehicle is headed — near-term, distant, and the
// whole predicted path.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"

	"hpm"
	"hpm/serve"
	"hpm/store"
)

const period = 120

func main() {
	st, err := store.New(store.Options{
		Config:          hpm.Config{Period: period, DistantThreshold: 40},
		MinTrainPeriods: 5,
	})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: serve.Handler(st)}
	go func() {
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("service up at", base)

	// Stream eight days of a delivery van's movements in hourly batches.
	spec := hpm.DefaultDatasetSpec(hpm.DatasetCar, 77)
	spec.Period = period
	spec.SubTrajectories = 8
	track := hpm.GenerateDataset(spec)
	for at := 0; at < track.Len(); at += period / 4 {
		end := at + period/4
		if end > track.Len() {
			end = track.Len()
		}
		post(base+"/objects/van-12/observe", track.Slice(at, end))
	}

	// The observe that completed the fifth period trained the model before
	// it answered, so the stats and predictions below see it.
	var stats map[string]any
	getJSON(base+"/objects/van-12/stats", &stats)
	fmt.Printf("van-12: %v observations, trained=%v, %v patterns\n",
		stats["Points"], stats["Trained"], stats["Patterns"])

	var pred struct {
		Tq          int `json:"tq"`
		Predictions []struct {
			X, Y   float64
			Source string
			Score  float64
		} `json:"predictions"`
	}
	getJSON(base+"/objects/van-12/predict?horizon=15&k=1", &pred)
	p := pred.Predictions[0]
	fmt.Printf("in 15 min:  (%.0f, %.0f) via %s\n", p.X, p.Y, p.Source)

	getJSON(base+"/objects/van-12/predict?horizon=80&k=1", &pred)
	p = pred.Predictions[0]
	fmt.Printf("in 80 min:  (%.0f, %.0f) via %s (distant query)\n", p.X, p.Y, p.Source)

	var traj struct {
		Predictions []struct {
			X, Y   float64
			Source string
		} `json:"predictions"`
	}
	now := track.Len() - 1
	getJSON(fmt.Sprintf("%s/objects/van-12/trajectory?from=%d&to=%d", base, now+1, now+30), &traj)
	fmt.Printf("next 30 samples predicted (%d points); first 3:\n", len(traj.Predictions))
	for i := 0; i < 3; i++ {
		q := traj.Predictions[i]
		fmt.Printf("  t+%d (%.0f, %.0f) via %s\n", i+1, q.X, q.Y, q.Source)
	}
}

func post(url string, pts []hpm.Point) {
	pairs := make([][2]float64, len(pts))
	for i, p := range pts {
		pairs[i] = [2]float64{p.X, p.Y}
	}
	body, err := json.Marshal(map[string]any{"points": pairs})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: %s", url, resp.Status)
	}
}

func getJSON(url string, into any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		log.Fatal(err)
	}
}
