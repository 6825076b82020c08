// Command cws-datagen emits the synthetic evaluation datasets as CSV for
// inspection or for feeding cws-sketch.
//
// Usage:
//
//	cws-datagen -dataset ip1 -key destIP -weight bytes -scale 0.5 > ip1.csv
//	cws-datagen -dataset netflix > ratings.csv
//	cws-datagen -dataset stocks -attr volume > volume.csv
//
// Output format: header "key,<assignment>,<assignment>,..." followed by one
// row per key with its weight in each assignment.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"

	"coordsample/internal/csvio"
	"coordsample/internal/datagen"
	"coordsample/internal/dataset"
)

func main() {
	name := flag.String("dataset", "ip1", "dataset: ip1, ip2, netflix, stocks")
	key := flag.String("key", "destIP", "IP datasets: destIP, srcdst, 4tuple")
	weight := flag.String("weight", "bytes", "IP datasets: bytes, packets, flows")
	attr := flag.String("attr", "high", "stocks: open, high, low, close, adj_close, volume")
	scale := flag.Float64("scale", 1.0, "dataset scale multiplier")
	seed := flag.Int64("seed", 0, "override generator seed (0 keeps the default)")
	flag.Parse()

	ds, err := build(*name, *key, *weight, *attr, *scale, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cws-datagen: %v\n", err)
		os.Exit(2)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	if err := csvio.WriteDataset(w, ds); err != nil {
		fmt.Fprintf(os.Stderr, "cws-datagen: %v\n", err)
		os.Exit(1)
	}
}

func build(name, key, weight, attr string, scale float64, seed int64) (*dataset.Dataset, error) {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return nil, fmt.Errorf("invalid -scale %v (want a positive finite number)", scale)
	}
	switch name {
	case "ip1", "ip2":
		var cfg datagen.IPConfig
		if name == "ip1" {
			cfg = datagen.DefaultIPConfig1()
		} else {
			cfg = datagen.DefaultIPConfig2()
		}
		cfg = cfg.Scale(scale)
		if seed != 0 {
			cfg.Seed = seed
		}
		k, err := parseKey(key)
		if err != nil {
			return nil, err
		}
		w, err := parseWeight(weight)
		if err != nil {
			return nil, err
		}
		return datagen.DispersedIP(datagen.IPTrace(cfg), k, w), nil
	case "netflix":
		cfg := datagen.DefaultRatingsConfig().Scale(scale)
		if seed != 0 {
			cfg.Seed = seed
		}
		return datagen.Ratings(cfg), nil
	case "stocks":
		cfg := datagen.DefaultStocksConfig().Scale(scale)
		if seed != 0 {
			cfg.Seed = seed
		}
		a, err := parseAttr(attr)
		if err != nil {
			return nil, err
		}
		return datagen.DispersedStocks(datagen.Stocks(cfg), a), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
}

func parseKey(s string) (datagen.IPKey, error) {
	switch s {
	case "destIP":
		return datagen.KeyDstIP, nil
	case "srcdst":
		return datagen.KeySrcDst, nil
	case "4tuple":
		return datagen.Key4Tuple, nil
	}
	return 0, fmt.Errorf("unknown key type %q", s)
}

func parseWeight(s string) (datagen.IPWeight, error) {
	switch s {
	case "bytes":
		return datagen.WeightBytes, nil
	case "packets":
		return datagen.WeightPackets, nil
	case "flows":
		return datagen.WeightFlows, nil
	}
	return 0, fmt.Errorf("unknown weight %q", s)
}

func parseAttr(s string) (datagen.StockAttr, error) {
	for _, a := range datagen.AllStockAttrs() {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown attribute %q", s)
}
