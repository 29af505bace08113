// Fixture: a filter mode docs/FILTERING.md names only in prose (rule:
// policy-doc).

const ScenarioDesc kScenarios[] = {
    {DesignScenario::Patu, "patu", "PATU"},
};
