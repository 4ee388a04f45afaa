#ifndef CHAINSFORMER_SERVE_CHECKPOINT_H_
#define CHAINSFORMER_SERVE_CHECKPOINT_H_

#include <memory>
#include <string>

#include "core/chainsformer.h"
#include "core/config.h"
#include "graph/quant.h"
#include "kg/dataset.h"

namespace chainsformer {
namespace serve {

/// Self-describing model checkpoint ("CFSM" container, DESIGN §6e).
///
/// Layout: magic "CFSM", uint32 format version, then three named blocks —
///   1. config:  tagged key/value list of every architecture-relevant
///      ChainsFormerConfig field (named keys, so version skew aborts with
///      the offending key, not a byte offset);
///   2. vocab:   relation + attribute name tables and the entity count,
///      validated against the loading dataset so a checkpoint can never be
///      silently applied to a graph it was not trained on;
///   3. stats:   per-attribute train-split normalization stats
///      (count/min/max/mean/stddev), restored verbatim so denormalized
///      predictions match the saving process bit-for-bit;
/// followed by one embedded "CFTN" tensor section holding all live
/// parameters (filter + encoder + reasoner, ChainsFormerModel order).
///
/// Format version 2 (written only when a quantization store is attached)
/// inserts a tagged-block section between the stats block and the tensor
/// section: uint32 block count, then per block a name string, a uint64
/// payload byte length, and the payload. Readers skip blocks whose name
/// they do not recognize, so the section is forward-extensible; a version-1
/// file is byte-identical to what this code always wrote, so checkpoints
/// without quantized weights remain readable by older binaries.

/// Writes `model` (config + vocab + stats + all trainable parameters) to
/// `path`. Precondition: the model is trained (weights are saved as-is
/// either way, but an untrained checkpoint predicts noise). Returns false
/// on I/O failure.
bool SaveModel(const core::ChainsFormerModel& model, const std::string& path);

/// As above, additionally embedding `quant` (per-output-channel int8
/// weights + calibration facts) as the optional "quant_int8" block. A null
/// `quant` writes a plain version-1 checkpoint, bit-identical to the
/// two-argument overload.
bool SaveModel(const core::ChainsFormerModel& model,
               const graph::QuantStore* quant, const std::string& path);

/// Reconstructs a trained model from a CFSM checkpoint.
///
/// Architecture/retrieval fields and the seed come from the checkpoint;
/// execution-only knobs (kernel_threads, eval_threads, batched_encoder,
/// check_mode, verbose, …) are taken from `base_config` so deployment can
/// tune them freely without breaking bitwise reproducibility.
///
/// Postcondition on success: the returned model is trained and its
/// Predict/RetrieveChains/PredictOnChainSets agree bitwise with the saving
/// process. Returns nullptr if the file is missing/unreadable or has the
/// wrong magic; aborts through CF_LOG(Fatal) naming the mismatch when the
/// file parses but disagrees with the dataset or binary (unknown config
/// key, vocab size/name mismatch, tensor shape mismatch, truncation).
/// When `quant_out` is non-null and the checkpoint carries a "quant_int8"
/// block, the block is validated (aborting via CF_LOG(Fatal) on corrupt
/// shapes or non-finite scales) and copied into *quant_out; a checkpoint
/// without the block leaves *quant_out empty, which callers should treat
/// as "serve full precision". Passing nullptr skips the block unparsed.
std::unique_ptr<core::ChainsFormerModel> LoadModel(
    const kg::Dataset& dataset, const core::ChainsFormerConfig& base_config,
    const std::string& path, graph::QuantStore* quant_out = nullptr);

}  // namespace serve
}  // namespace chainsformer

#endif  // CHAINSFORMER_SERVE_CHECKPOINT_H_
