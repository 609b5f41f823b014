package feature

import "fmt"

// Names returns the labels of every feature index in order. The slice is
// freshly allocated; the model store persists it alongside trained weights so
// a saved model records exactly which encoding it was fitted against.
func Names() []string {
	out := make([]string, Dim)
	for i := range out {
		out[i] = Name(i)
	}
	return out
}

// Name returns a human-readable label for a feature index, used by the
// model-inspection tooling to explain learned weights.
func Name(idx int) string {
	if idx < 0 || idx >= Dim {
		return fmt.Sprintf("invalid(%d)", idx)
	}
	switch {
	case idx < TailStart:
		// Unused indices of the instance-only components no ranking
		// sees; a unique label each keeps persisted name lists aligned.
		return fmt.Sprintf("retired(%d)", idx)
	case idx == idxBx:
		return "log-bx"
	case idx == idxBy:
		return "log-by"
	case idx == idxBz:
		return "log-bz"
	case idx == idxUnroll:
		return "unroll"
	case idx == idxChunk:
		return "log-chunk"
	case idx == idxBx2:
		return "log-bx^2"
	case idx == idxBy2:
		return "log-by^2"
	case idx == idxBz2:
		return "log-bz^2"
	case idx == idxUnroll2:
		return "unroll^2"
	case idx == idxChunk2:
		return "log-chunk^2"
	case idx == idxTileWS:
		return "log-tile-ws"
	case idx == idxTileWS2:
		return "log-tile-ws^2"
	case idx == idxFracX:
		return "frac-x"
	case idx == idxFracY:
		return "frac-y"
	case idx == idxFracZ:
		return "frac-z"
	case idx == idxNumTiles:
		return "log-tiles"
	case idx == idxTileGroups:
		return "log-groups"
	case idx == idxTileGroups2:
		return "log-groups^2"
	case idx == idxUnrollDensity:
		return "unroll*density"
	case idx == idxInnerStream:
		return "log-inner-stream"
	case idx == idxInnerStream2:
		return "log-inner-stream^2"
	case idx == idxDTypeBx:
		return "dtype*log-bx"
	case idx == idxDensityWS:
		return "density*log-ws"
	case idx >= idxWSBin0 && idx < idxWSBin0+wsBins:
		return fmt.Sprintf("ws-bin[%d]", idx-idxWSBin0)
	case idx >= idxBxBin0 && idx < idxBxBin0+blockBins:
		return fmt.Sprintf("bx-bin[%d]", idx-idxBxBin0)
	case idx >= idxByBin0 && idx < idxByBin0+blockBins:
		return fmt.Sprintf("by-bin[%d]", idx-idxByBin0)
	case idx >= idxBzBin0 && idx < idxBzBin0+blockBins:
		return fmt.Sprintf("bz-bin[%d]", idx-idxBzBin0)
	case idx >= idxUnrollBin0 && idx < idxUnrollBin0+unrollBins:
		return fmt.Sprintf("unroll-bin[%d]", idx-idxUnrollBin0)
	case idx >= idxChunkBin0 && idx < idxChunkBin0+chunkBins:
		return fmt.Sprintf("chunk-bin[%d]", idx-idxChunkBin0)
	case idx >= idxBalanceBin0 && idx < idxBalanceBin0+balanceBins:
		return fmt.Sprintf("balance-bin[%d]", idx-idxBalanceBin0)
	case idx == idxFuse:
		return "fuse"
	case idx == idxFuse2:
		return "fuse^2"
	case idx == idxFuseDensity:
		return "fuse*density"
	case idx == idxFuseWS:
		return "fuse*log-ws"
	case idx >= idxFuseBin0 && idx < idxFuseBin0+fuseBins:
		return fmt.Sprintf("fuse-bin[k=%d]", idx-idxFuseBin0+2)
	default:
		return fmt.Sprintf("feature(%d)", idx)
	}
}
