package formats

import "genogo/internal/obs"

// Storage-integrity metrics, registered against the process-wide registry at
// package init so any binary importing formats exports them from /metrics.
var (
	metricVerifiedLoads = obs.Default().Counter("genogo_storage_verified_total",
		"Dataset loads fully verified against a manifest (every checksum matched).")
	metricUnverifiedLoads = obs.Default().Counter("genogo_storage_unverified_total",
		"Imports of text exports, dataset directories without a manifest (no integrity guarantee; gmqlfsck -rebuild converts them into members).")
	metricIntegrityFailures = obs.Default().CounterVec("genogo_storage_integrity_failures_total",
		"Integrity faults detected on the read path, by reason.", "reason")
	metricQuarantined = obs.Default().Counter("genogo_storage_quarantined_total",
		"Files moved aside into a dataset's .quarantine directory.")
	metricPartialLoads = obs.Default().Counter("genogo_storage_partial_loads_total",
		"Dataset loads that succeeded with at least one sample quarantined or skipped.")
	metricRepairs = obs.Default().CounterVec("genogo_storage_repairs_total",
		"Repairs applied by the fsck engine, by action.", "action")
	metricStreamChecksumFailures = obs.Default().Counter("genogo_storage_stream_checksum_failures_total",
		"Dataset wire frames whose header or a sample image failed its CRC32C.")
	metricBytesParsed = obs.Default().Counter("genogo_storage_bytes_parsed_total",
		"Bytes consumed by the text parsers (native, BED, GTF, VCF, schema, metadata) across all loads.")
	metricColumnarLoads = obs.Default().Counter("genogo_storage_columnar_loads_total",
		"Columnar dataset reads (full or pruned) served by the partition-level read path.")
	metricPrunedParts = obs.Default().CounterVec("genogo_storage_pruned_parts_total",
		"(sample, chromosome) partitions consulted by pruned columnar reads, by outcome (skipped: payload never read).", "outcome")
	metricPrunedRegions = obs.Default().Counter("genogo_storage_pruned_regions_total",
		"Regions inside partitions that pruned columnar reads skipped without reading.")
	metricPrunedBytes = obs.Default().Counter("genogo_storage_pruned_bytes_total",
		"Payload bytes pruned columnar reads skipped without reading.")
)

// Repository metrics: the catalog a node serves (ServeRepository), as time
// series.
var (
	metricRepoDatasets = obs.Default().Gauge("genogo_repo_datasets",
		"Datasets the served repository catalog holds.")
	metricRepoSamples = obs.Default().Gauge("genogo_repo_samples",
		"Samples across the served catalog's datasets with resolved statistics.")
	metricRepoRegions = obs.Default().Gauge("genogo_repo_regions",
		"Regions across the served catalog's datasets with resolved statistics.")
	metricRepoBytes = obs.Default().Gauge("genogo_repo_bytes",
		"Estimated serialized bytes across the served catalog's datasets with resolved statistics.")
	metricRepoScans = obs.Default().Counter("genogo_repo_lazy_scans_total",
		"Full dataset scans performed to compute statistics for datasets without a usable stats block.")
)
