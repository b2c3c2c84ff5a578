package federation

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"genogo/internal/formats"
	"genogo/internal/gdm"
	"genogo/internal/synth"
)

// userDataset is request i's private input: i+1 samples owned by i, all
// under one name, so a request that saw another request's dataset counts
// the wrong number of samples.
func userDataset(i int) *gdm.Dataset {
	ds := gdm.NewDataset("USER", gdm.MustSchema())
	for k := 0; k <= i; k++ {
		s := gdm.NewSample(fmt.Sprintf("s%d", k))
		s.Meta.Add("owner", fmt.Sprint(i))
		s.AddRegion(gdm.NewRegion("chr1", int64(k*100), int64(k*100+50), gdm.StrandNone))
		ds.MustAdd(s)
	}
	return ds
}

// TestRepoUserDatasetsStayPrivate: concurrent queries carrying same-named
// private datasets each see only their own, while the node re-registers a
// dataset and its catalog is listed on /datasets and /debug/repo; no private
// dataset is ever listed or visible to a request that did not carry it.
func TestRepoUserDatasetsStayPrivate(t *testing.T) {
	srv, ts := newNode(t, "node1", 15, 4)
	c := NewClient(ts.URL)
	ctx := context.Background()
	replacement := synth.New(16).Encode(synth.EncodeOptions{Samples: 4, MeanPeaks: 20})

	var bg sync.WaitGroup
	stop := make(chan struct{})
	loop := func(f func()) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	loop(func() { srv.AddDataset(replacement) })
	loop(func() {
		var listing struct {
			Datasets []formats.DatasetSummary `json:"datasets"`
		}
		resp, err := http.Get(ts.URL + "/debug/repo?format=json")
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
			t.Error(err)
			return
		}
		for _, d := range listing.Datasets {
			if d.Name == "USER" {
				t.Error("a private dataset is listed on /debug/repo")
			}
		}
	})
	loop(func() {
		infos, err := c.ListDatasets(ctx)
		if err != nil {
			t.Error(err)
		}
		for _, info := range infos {
			if info.Name == "USER" {
				t.Error("a private dataset is listed on /datasets")
			}
		}
	})
	loop(func() {
		_, err := c.Execute(ctx, `X = SELECT() USER; MATERIALIZE X;`, "X")
		if err == nil || !strings.Contains(err.Error(), "unknown dataset") {
			t.Errorf("a request without a private dataset saw one (err %v)", err)
		}
	})

	var reqs sync.WaitGroup
	for i := 0; i < 6; i++ {
		reqs.Add(1)
		go func(i int) {
			defer reqs.Done()
			for round := 0; round < 4; round++ {
				qr, err := c.ExecuteWithUserData(ctx, `X = SELECT() USER; MATERIALIZE X;`, "X", userDataset(i))
				if err != nil {
					t.Error(err)
					return
				}
				if qr.Samples != i+1 {
					t.Errorf("request %d saw a private dataset of %d samples, want its own %d", i, qr.Samples, i+1)
				}
				if err := c.Release(ctx, qr.ResultID); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	reqs.Wait()
	close(stop)
	bg.Wait()
}
