// Fixture: a run-condition field docs/SERVE.md does not document (rule:
// run-field-doc).

static constexpr RunConfigField kFields[] = {
    {"threshold", &RunConfig::threshold, 0, 1, ConfigError::BadThreshold,
     "AF-SSIM threshold"},
};
