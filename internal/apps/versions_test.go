package apps

import (
	"context"
	"fmt"

	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
)

// The all-versions tests run each application by version through these
// helpers; the translated versions box the dataset on demand.

var levels = map[Version]core.OptLevel{Generated: core.OptNone, Opt1: core.Opt1, Opt2: core.Opt2, Opt3: core.Opt3}

func runKMeans(v Version, points, init *dataset.Matrix, cfg KMeansConfig) (*KMeansResult, error) {
	if opt, ok := levels[v]; ok {
		return KMeansTranslated(BoxPoints(points), init, opt, cfg)
	}
	switch v {
	case Seq:
		return KMeansSeq(points, init, cfg)
	case ChapelNative:
		return KMeansChapelNative(BoxPoints(points), init, cfg)
	case ManualFR:
		return KMeansManualFR(points, init, cfg)
	case MapReduce:
		return KMeansMapReduce(points, init, cfg)
	}
	return nil, fmt.Errorf("no k-means version %v", v)
}

func runPCA(v Version, data *dataset.Matrix, cfg PCAConfig) (*PCAResult, error) {
	if opt, ok := levels[v]; ok {
		return PCATranslated(BoxMatrix(data), opt, cfg)
	}
	switch v {
	case Seq:
		return PCASeq(data)
	case ManualFR:
		return PCAManualFR(data, cfg)
	}
	return nil, fmt.Errorf("no PCA version %v", v)
}

// emManualFR runs EMSession on an engine of its own.
func emManualFR(points, init *dataset.Matrix, cfg EMConfig) (*EMResult, error) {
	eng := freeride.New(cfg.Engine)
	defer eng.Close()
	return EMSession(context.Background(), eng, dataset.NewMemorySource(points), init, cfg)
}

func runEM(v Version, points, init *dataset.Matrix, cfg EMConfig) (*EMResult, error) {
	if opt, ok := levels[v]; ok && v != Opt3 {
		return EMTranslated(BoxPoints(points), init, opt, cfg)
	}
	switch v {
	case Seq:
		return EMSeq(points, init, cfg)
	case ManualFR:
		return emManualFR(points, init, cfg)
	}
	return nil, fmt.Errorf("no EM version %v", v)
}

func runSpMV(v Version, data *dataset.Matrix, cfg SpMVConfig) (*SpMVResult, error) {
	if opt, ok := levels[v]; ok {
		return SpMVTranslated(data, opt, cfg)
	}
	switch v {
	case Seq:
		return SpMVSeq(data, cfg)
	case ManualFR:
		return SpMVManualFR(data, cfg)
	}
	return nil, fmt.Errorf("no spmv version %v", v)
}
